"""Deterministic report emission: full-precision floats, atomic writes,
self-describing meta blocks. No timestamps anywhere, so identical inputs
produce identical bytes."""

import json
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


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays to plain python values."""
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, complex):
        return {"re": float(fmt(obj.real)), "im": float(fmt(obj.imag))}
    return obj


def render_json(payload):
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def render_csv(columns, rows, meta=None):
    """rows: iterable of sequences aligned with columns. meta: dict rendered
    as leading '# key = value' comment lines."""
    lines = []
    for key in sorted(meta or {}):
        value = (meta or {})[key]
        if isinstance(value, float):
            value = fmt(value)
        lines.append("# %s = %s" % (key, value))
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append(str(int(cell)))
            elif isinstance(cell, float):
                cells.append(fmt(cell))
            elif hasattr(cell, "item"):
                item = cell.item()
                cells.append(fmt(item) if isinstance(item, float) else str(item))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
