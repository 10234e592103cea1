"""Shared output helpers: CSV with a fixed numeric format, JSON-safe values.

All emitted CSV is comma-separated with a mandatory header row, LF line
endings, and numbers printed to 17 significant digits so identical runs are
byte-identical.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np


def fmt_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def csv_text(header, rows) -> str:
    out = io.StringIO()
    out.write(",".join(str(h) for h in header) + "\n")
    for row in rows:
        out.write(",".join(fmt_value(v) for v in row) + "\n")
    return out.getvalue()


def write_csv(path_or_file, header, rows) -> None:
    text = csv_text(header, rows)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        Path(path_or_file).write_text(text, encoding="utf-8", newline="")


def trial_table(estimates, predictions=None):
    """Header and rows of per-trial estimates, with variance predictions if given."""
    if predictions is None:
        return ("trial", "estimate"), list(enumerate(estimates))
    return (("trial", "estimate", "variance_prediction"),
            [(t, e, v) for t, (e, v) in enumerate(zip(estimates, predictions))])


def posterior_table(post):
    """Header and rows of a posterior trace on its grid."""
    return ("grid_phi", "posterior_density"), list(zip(post.grid, post.density))


def write_trials_csv(report, path_or_file) -> None:
    """Per-trial estimates: columns (trial, estimate)."""
    write_csv(path_or_file, *trial_table(report.estimates))


def write_posterior_csv(post, path_or_file) -> None:
    """Posterior trace: columns (grid_phi, posterior_density)."""
    write_csv(path_or_file, *posterior_table(post))


def json_safe(value):
    """Recursively convert numpy scalars/arrays and non-finite floats for JSON."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()  # what the element-wise path gives, in one call
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
