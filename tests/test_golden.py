"""Golden CLI outputs: every command at small N and a fixed seed, JSON and CSV.

The invocation list and the per-field float tolerances live in
tests/golden/invocations.json (see tests/golden/README.md for why each
tolerance is what it is); scripts/golden.py regenerates the files.  Keys,
strings, integers and CSV headers must match exactly, floats within the
tolerance of their field (JSON key or CSV column).
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TOLERANCES = json.loads((golden.GOLDEN / "invocations.json").read_text())["tolerances"]
CASES = [(name, fmt) for name in golden.invocations() for fmt in golden.FORMATS]


def _close(field: str, got: float, want: float) -> bool:
    tol = TOLERANCES.get(field, TOLERANCES["*"])
    return abs(got - want) <= tol["abs"] + tol["rel"] * abs(want)


def _compare_json(got, want, field: str, path: str) -> list[str]:
    if isinstance(want, float) and type(got) is float:
        return [] if _close(field, got, want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [e for k in want for e in _compare_json(got[k], want[k], k, f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in _compare_json(g, w, field, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _compare_csv(got: str, want: str) -> list[str]:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    header = want_rows[0]
    if got_rows[0] != header:
        return [f"header {got_rows[0]} != {header}"]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows != {len(want_rows)}"]
    errors = []
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        if len(g_row) != len(w_row):
            errors.append(f"row {r}: {len(g_row)} cells != {len(w_row)}")
            continue
        for column, g, w in zip(header, g_row, w_row):
            g_num, w_num = _number(g), _number(w)
            same = (_close(column, g_num, w_num) if g_num is not None and w_num is not None
                    else g == w)
            if not same:
                errors.append(f"row {r} {column}: {g} != {w}")
    return errors


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{n}.{f}" for n, f in CASES])
def test_output_matches_golden(name, fmt):
    want = (golden.GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    got = golden.render(golden.invocations()[name], fmt)
    if fmt == "json":
        errors = _compare_json(json.loads(got), json.loads(want), "*", "$")
    else:
        errors = _compare_csv(got, want)
    assert not errors, "\n".join(errors[:20])


def test_every_command_has_a_golden():
    from spinmetro.cli import COMMANDS

    assert {argv[0] for argv in golden.invocations().values()} == set(COMMANDS)
