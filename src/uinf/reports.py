"""Deterministic report emission: full-precision floats, atomic writes,
self-describing meta blocks and a checks block. No timestamps, so identical
inputs produce identical bytes; a non-finite number is written as null."""

import json
import math
import os
import tempfile


def fmt(x):
    """Render a float with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory + rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_report_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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
    """Plain python copy of obj (numpy unwrapped, complex as {re, im}) with
    each non-finite float replaced by None and its key path added to bad."""
    if isinstance(obj, float):  # python and numpy doubles
        if math.isfinite(obj):
            return float(obj)
        bad.append(path)
        return None
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist(), bad, path)
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _plain(v, bad, path + (k,)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, bad, path + (i,)) for i, v in enumerate(obj)]
    return obj


def scrub(document):
    """Plain copy of a JSON payload dict or a CSV (columns, rows, meta)
    triple, and the key paths ("a.b[3]") of its non-finite numbers."""
    bad = []
    if isinstance(document, dict):
        clean = _plain(document, bad)
    else:
        columns, rows, meta = document
        clean = (columns, _plain(list(rows), bad, ("rows",)), _plain(meta, bad, ("meta",)))
    return clean, ["".join("[%d]" % k if isinstance(k, int) else "." + k for k in path)[1:]
                   for path in bad]


def _text(value):
    """CSV text of a plain value; None, a scrubbed non-finite number, is empty."""
    return "" if value is None else fmt(value) if isinstance(value, float) else str(value)


def render(document, checks):
    """Text of a scrubbed document: JSON with a top-level "checks" list, or
    CSV with one "# check.<name> = value=... bound=... ok=..." line per check
    after the meta lines."""
    checks = _plain(checks, [])
    if isinstance(document, dict):
        payload = dict(document, checks=checks)
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    columns, rows, meta = document
    lines = ["# %s = %s" % (key, _text(meta[key])) for key in sorted(meta)]
    lines.extend("# check.%s = value=%s bound=%s ok=%s" % (
        c["name"], _text(c["value"]), _text(c["bound"]), c["ok"]) for c in checks)
    lines.append(",".join(columns))
    lines.extend(",".join(_text(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"
