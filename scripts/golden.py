#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Every entry of tests/golden/invocations.json is run once with
``--format json`` and once with ``--format csv``; the rendered text is
written to ``<name>.json`` and ``<name>.csv`` beside it.  ``{golden}`` in
an argument stands for the golden directory (it holds the mix-spec config).
tests/test_golden.py reads the same list and compares against these files.

Usage: PYTHONPATH=src python scripts/golden.py
"""

import argparse
import json
from pathlib import Path

from spinmetro.cli import build_parser, config_from_args, run

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
FORMATS = ("json", "csv")


def invocations() -> dict:
    """name -> argv, with {golden} resolved."""
    spec = json.loads((GOLDEN / "invocations.json").read_text())
    return {name: [a.replace("{golden}", str(GOLDEN)) for a in argv]
            for name, argv in spec["invocations"].items()}


def render(argv, fmt: str) -> str:
    return run(config_from_args(build_parser().parse_args([*argv, "--format", fmt])))


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    for name, argv in invocations().items():
        for fmt in FORMATS:
            (GOLDEN / f"{name}.{fmt}").write_text(render(argv, fmt), encoding="utf-8",
                                                  newline="")
    print(f"wrote {len(FORMATS) * len(invocations())} files to {GOLDEN}")
