"""Tests of the benchmark's own helpers: the tail-percentile rule, span self
time, the comparison verdicts, the rescaling to the reference speed, the CLI
output check and the tracer's wrapping of every binding site.

    python3 -m pytest bench/test_bench_helpers.py
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(1, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


def test_tail_leaves_exactly_ten_items_beyond():
    values = list(range(100, 0, -1))
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_tail_percentile_follows_the_sample_count():
    value, pct, n = stats.tail(range(26))
    assert (value, n) == (15, 26)
    assert pct == pytest.approx(100.0 * 16 / 26)


def test_tail_without_ten_items_beyond_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(range(10)) == (9, 100.0, 10)


def test_self_time_subtracts_children():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", "root", 1.0, 4.0),
        ("b", "root", 5.0, 6.0),
        ("a1", "a", 2.0, 3.0),
    ]
    got = stats.self_times(spans)
    assert got == pytest.approx({"root": 6.0, "a": 2.0, "b": 1.0, "a1": 1.0})


def test_self_time_merges_overlap_and_clips_to_the_parent():
    spans = [
        ("p", None, 0.0, 10.0),
        ("c1", "p", 2.0, 6.0),
        ("c2", "p", 4.0, 8.0),
        ("c3", "p", 9.0, 12.0),
    ]
    assert stats.self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    slower = [v * 1.3 for v in base]
    faster = [v * 0.7 for v in base]
    near = [v * 1.02 for v in base]
    assert stats.verdict(base, slower, 0.1, "lower") == "worse"
    assert stats.verdict(base, faster, 0.1, "lower") == "better"
    assert stats.verdict(base, near, 0.1, "lower") == "within bound"
    assert stats.verdict(base, slower, 0.1, "higher") == "better"
    assert stats.verdict(base, faster, 0.1, "higher") == "worse"


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    wide = [0.6, 0.8, 1.0, 1.2, 1.4, 0.7, 1.3, 0.9, 1.1, 1.0]
    assert stats.spread(wide) > 0.1
    assert stats.verdict(wide, [v * 1.05 for v in wide], 0.1, "lower") == "unresolved"
    # unless every new run beats every base run
    assert stats.verdict(wide, [0.1] * 10, 0.1, "lower") == "better"


def test_verdict_with_a_zero_median():
    assert stats.verdict([0.0] * 4, [0.0] * 4, 0.1, "lower") == "within bound"
    assert stats.worsening(0.0, 0.5, "lower") == float("inf")
    assert stats.worsening(0.0, 0.5, "higher") == float("-inf")


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)


def test_rescale_uses_the_kernel_runs_around_each_item():
    # kernel runs at 0..9 s; the host ran at a third of its speed from 5 s on
    samples = [(float(t), 0.01 if t < 5 else 0.03) for t in range(10)]
    got = stats.rescale([0.5, 0.5, 0.5], [1.5, 4.5, 8.5], samples, 0.01, around=2)
    # 1.5 s: runs at 0, 1 | 2, 3; 4.5 s: 3, 4 | 5, 6 (median 0.02); 8.5 s: 7, 8 | 9
    assert got == pytest.approx([0.5, 0.25, 0.5 / 3])


def test_rescale_ignores_one_slow_kernel_run():
    samples = [(float(t), 0.05 if t == 3 else 0.01) for t in range(8)]
    assert stats.rescale([0.2], [3.5], samples, 0.01) == pytest.approx([0.2])
    with pytest.raises(ValueError):
        stats.rescale([1.0], [0.0], [], 0.01)


def test_cli_output_check():
    assert run.output_parses('{"a": 1.5}\n')
    assert not run.output_parses('{"a": NaN}\n')
    assert run.output_parses("# seed = 0\nx,y\n1,2.5\n")
    assert not run.output_parses("x,y\n1,2\n")
    assert not run.output_parses("# seed = 0\nx,y\n1\n")
    assert not run.output_parses("# seed = 0\nx,y\n1,nan\n")


def test_tracer_wraps_every_binding_site():
    import numpy as np
    from uinf import gauge_fields, reduction, sphere_algebra

    original = sphere_algebra.bracket
    tr = tracer.Tracer()
    tr.install()
    try:
        assert gauge_fields.bracket is sphere_algebra.bracket is reduction.bracket
        assert gauge_fields.bracket is not original
        cfg = gauge_fields.random_gauge_config(2, 1, np.random.default_rng(0))
        tr.run_item((0, 0), lambda: gauge_fields.yang_mills_integral(cfg))
        gauge_fields.yang_mills_integral(cfg)  # outside an item: not recorded
    finally:
        tr.uninstall()
    assert sphere_algebra.bracket is original and gauge_fields.bracket is original
    names = {sid: name for _, sid, _, name, _, _ in tr.spans}
    parents = {(names[sid], names.get(parent)) for _, sid, parent, _, _, _ in tr.spans}
    assert ("sphere_algebra.bracket", "gauge_fields.yang_mills_integral") in parents
    assert ("sphere_algebra.gradient", "sphere_algebra.bracket") in parents
    assert ("sphere_algebra.integral_of_product", "gauge_fields.yang_mills_integral") in parents
    cycle = tr.per_cycle()[0]
    assert cycle["spans"]["gauge_fields.yang_mills_integral"][0] == 1
    assert cycle["counts"][tracer.CONSTRUCTIONS] > 0
