"""The report writer against a per-cell reference: a CSV table is a float
array written one row template at a time, and each non-finite number is
written as null, named by its key path and counted by the finite check."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from uinf import reports

# signed zeros, subnormals, the largest magnitudes and the non-finite values
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
                   1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0])


def _reference_row(row):
    return ",".join("" if not math.isfinite(x) else "%.17g" % x for x in row)


@st.composite
def _tables(draw):
    """A table of 1-8 columns and 1-40 rows whose cells mix the edges, any
    double (random bit patterns) and integral floats up to 2**53 (the l and
    m columns of structure-constants), drawn from a seeded generator so that
    a table of 320 cells costs one draw."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kinds = [rng.choice(_EDGES, shape),
             rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64),
             rng.integers(-2**53, 2**53, shape, endpoint=True).astype(float)]
    return np.choose(rng.integers(0, 3, shape), kinds)


@settings(max_examples=100, deadline=None)
@given(table=_tables(), meta=st.sampled_from([(0.5, "0.5", []), (7, "7", []),
                                              (math.nan, "", ["meta.x"]),
                                              (-math.inf, "", ["meta.x"])]))
def test_csv_rows_match_the_per_cell_reference(table, meta):
    value, text_of_value, meta_paths = meta
    columns = ["c%d" % j for j in range(table.shape[1])]
    checks = [reports.check("given", 0.0, 1.0)]
    text, paths = reports.render((columns, table, {"seed": 0, "x": value}), checks)
    lines = text.splitlines()
    header = lines.index(",".join(columns))
    assert lines[header + 1:] == [_reference_row(row) for row in table.tolist()]
    assert "# x = " + text_of_value in lines
    rows, cols = np.nonzero(~np.isfinite(table))
    assert paths == ["rows[%d][%d]" % ij for ij in zip(rows.tolist(), cols.tolist())] + meta_paths
    assert checks[-1] == {"name": "finite", "value": len(paths), "bound": 0, "ok": not paths}


def test_csv_rows_in_blocks_match_the_reference_across_block_boundaries():
    """A table of two blocks and a part is written as one table would be:
    non-finite cells just before and just after each block boundary are empty
    and named, and no row is lost or repeated at a boundary."""
    n = 2 * reports.ROW_BLOCK + 5
    table = np.random.default_rng(3).standard_normal((n, 3))
    for edge in (reports.ROW_BLOCK, 2 * reports.ROW_BLOCK):
        table[edge - 1, 0], table[edge - 1, 2] = math.nan, math.inf
        table[edge, 1] = -math.inf
        table[edge + 1] = math.nan
    text, paths = reports.render((["a", "b", "c"], table, {}), [])
    lines = text.splitlines()
    assert text.endswith("\n") and lines[lines.index("a,b,c") + 1:] == [
        _reference_row(row) for row in table.tolist()]
    rows, cols = np.nonzero(~np.isfinite(table))
    assert paths == ["rows[%d][%d]" % ij for ij in zip(rows.tolist(), cols.tolist())]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-2**53, 2**53))
def test_an_integral_float_prints_as_its_integer(k):
    """So the l and m columns of structure-constants print as the integers
    they were before they became float columns."""
    text, _ = reports.render((["k"], np.array([[k]], dtype=float), {}), [])
    assert text.splitlines()[-1] == str(k)


def test_json_paths_follow_the_document_and_checks_are_not_counted():
    checks = [reports.check("worst", math.nan, 1.0)]
    document = {"a": {"b": [1.0, math.inf, np.float64(math.nan)]}, "c": "text", "d": 2}
    text, paths = reports.render(document, checks)
    payload = json.loads(text)
    assert paths == ["a.b[1]", "a.b[2]"]
    assert payload["a"] == {"b": [1.0, None, None]}
    assert payload["checks"] == [
        {"name": "worst", "value": None, "bound": 1.0, "ok": False},
        {"name": "finite", "value": 2, "bound": 0, "ok": False}]
