"""Deterministic report emission: full-precision floats, atomic writes,
self-describing meta blocks and a checks block. No timestamps, so identical
inputs produce identical bytes; a non-finite number is written as null. A
document is a JSON payload dict or a CSV (columns, table, meta) triple whose
table is a 2-D float64 array of len(columns) columns."""

import json
import math
import os
import tempfile

import numpy as np

FLOAT = "%.17g"  # 17 significant digits: every double round-trips
# CSV rows formatted at a time: only one block's Python floats and row strings
# are alive next to the text, which a whole table's would outweigh several times
ROW_BLOCK = 4096


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory + rename.
    The file gets the mode a plain open() would give it (0o666 under the
    umask), not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_report_")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check(name, value, bound, ok=None):
    """A checks-block entry; ok defaults to value <= bound (false for NaN)."""
    return {"name": name, "value": value, "bound": bound,
            "ok": bool(value <= bound if ok is None else ok)}


def _plain(obj, bad, path=()):
    """Copy of obj with each non-finite float replaced by None and its key
    path added to bad."""
    if isinstance(obj, float):  # python and numpy doubles
        if math.isfinite(obj):
            return float(obj)
        bad.append(path)
        return None
    if isinstance(obj, dict):
        return {k: _plain(v, bad, path + (k,)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, bad, path + (i,)) for i, v in enumerate(obj)]
    return obj


def _text(value):
    """CSV text of a plain value; None, a non-finite number, is empty."""
    return "" if value is None else FLOAT % value if isinstance(value, float) else str(value)


def render(document, checks):
    """(text, key paths) of a document: each non-finite number is written as
    null and named by its key path ("a.b[3]"; for CSV the table cells as
    "rows[i][j]" in row-major order, then "meta.<key>"), and checks gains
    the check "finite" on their count. JSON gets a top-level "checks" list,
    CSV one "# check.<name> = value=... bound=... ok=..." line per check
    after the meta lines. A table row is one FLOAT template, or cell by cell
    with an empty cell for each non-finite number; rows are formatted
    ROW_BLOCK at a time."""
    bad = []
    if isinstance(document, dict):
        document = _plain(document, bad)
    else:
        columns, table, meta = document
        finite = np.isfinite(table)
        bad = [("rows", i, j) for i, j in np.argwhere(~finite).tolist()]
        meta = _plain(meta, bad, ("meta",))
    checks.append(check("finite", len(bad), 0))
    plain = _plain(checks, [])  # a check's non-finite number is written as null, not counted
    paths = ["".join("[%d]" % k if isinstance(k, int) else "." + k for k in path)[1:]
             for path in bad]
    if isinstance(document, dict):
        text = json.dumps(dict(document, checks=plain), indent=2, sort_keys=True, allow_nan=False)
        return text + "\n", paths
    lines = ["# %s = %s" % (key, _text(meta[key])) for key in sorted(meta)]
    lines.extend("# check.%s = value=%s bound=%s ok=%s" % (
        c["name"], _text(c["value"]), _text(c["bound"]), c["ok"]) for c in plain)
    lines.append(",".join(columns))
    template = ",".join([FLOAT] * len(columns))
    for start in range(0, len(table), ROW_BLOCK):
        rows = zip(table[start:start + ROW_BLOCK].tolist(),
                   finite[start:start + ROW_BLOCK].all(axis=1).tolist())
        lines.append("\n".join(template % tuple(row) if whole else ",".join(
            _text(x) if math.isfinite(x) else "" for x in row) for row, whole in rows))
    lines.append("")  # the final newline, so that the text is built by one join
    return "\n".join(lines), paths
