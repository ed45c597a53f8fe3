"""Pure helpers of the benchmark: order statistics, span self time and the
comparison verdict. Standard library only, so the orchestrator and the tests
can use them without importing numpy or uinf."""

import bisect
import statistics

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """Value at the highest percentile that still has `beyond` items above it.

    Returns (value, percentile, count). With n sorted values the chosen one
    sits at index n - beyond - 1, so exactly `beyond` items lie beyond it and
    its percentile is 100 * (n - beyond) / n. With `beyond` items or fewer
    there is no such percentile; the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def rescale(times, starts, samples, reference, around=4):
    """Item times at the machine's reference speed.

    times[i] is an item's duration and starts[i] its start; samples are
    (start, seconds) runs of a fixed reference kernel, on the same clock,
    that reads `reference` seconds at the reference speed and runs between
    the items. Each item time is scaled by `reference` over the median of
    the `around` kernel runs just before the item and the `around` just
    after it (fewer at either end of the run): near enough to follow a
    drift of the host over seconds, and enough runs that the kernel's own
    jitter does not carry over.
    """
    samples = sorted(samples)
    if not samples:
        raise ValueError("no reference samples")
    begins = [s0 for s0, _ in samples]
    out = []
    for t, start in zip(times, starts):
        i = bisect.bisect_right(begins, start)
        local = [d for _, d in samples[max(i - around, 0):i + around]]
        out.append(t * reference / statistics.median(local))
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.

    spans: iterable of (span_id, parent_id, t0, t1); parent_id is None for a
    root. Overlapping children are merged before subtraction, and a child
    reaching outside its parent only counts inside the parent's interval.
    Returns {span_id: seconds}.
    """
    spans = list(spans)
    bounds = {sid: (t0, t1) for sid, _, t0, t1 in spans}
    children = {}
    for sid, parent, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, (t0, t1) in bounds.items():
        covered = 0.0
        start = end = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if end is None or c0 > end:
                if end is not None:
                    covered += end - start
                start, end = c0, c1
            else:
                end = max(end, c1)
        if end is not None:
            covered += end - start
        out[sid] = (t1 - t0) - covered
    return out


def worsening(base, new, better):
    """Share of the base median by which `new` is worse; negative if better."""
    if base == 0:
        if new == base:
            return 0.0
        worse = new > 0 if better == "lower" else new < 0
        return float("inf") if worse else float("-inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_runs, new_runs, bound, better):
    """Compare two sets of runs of one metric against its fixed bound.

    'unresolved' when either side's quartile spread is wider than the bound,
    unless every new run reads better than every base run; otherwise 'worse'
    or 'better' when the medians differ by more than the bound, and
    'within bound' when they do not.
    """
    if better == "lower":
        all_better = max(new_runs) < min(base_runs)
    else:
        all_better = min(new_runs) > max(base_runs)
    if spread(base_runs) > bound or spread(new_runs) > bound:
        return "better" if all_better else "unresolved"
    change = worsening(statistics.median(base_runs), statistics.median(new_runs), better)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"
