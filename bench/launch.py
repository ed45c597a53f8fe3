"""Stand-in for the `uinf` console script: import uinf.cli, call main(argv).

    python3 bench/launch.py [--timing FILE] ARGV...

With --timing the launcher also wraps the layer calls in spans and writes its
start time, import and main durations, span sums, counters and grid-cache
counts to FILE as JSON. uinf's own stdout and --out are never touched.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    argv = sys.argv[1:]
    timing = None
    if argv[:1] == ["--timing"]:
        timing, argv = argv[1], argv[2:]
    sys.path.insert(1, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    from uinf.cli import main as uinf_main
    import_s = time.perf_counter() - t0
    if timing is None:
        return uinf_main(argv)

    import tracer

    tr = tracer.Tracer()
    tr.install()
    t1 = time.perf_counter()
    rc = tr.run_item((0, 0), lambda: uinf_main(argv))
    main_s = time.perf_counter() - t1
    hits, misses = tracer.grid_cache_counts()
    cycle = tr.per_cycle().get(0, {"spans": {}, "counts": {}})
    record = {
        "started": STARTED,
        "import_s": import_s,
        "main_s": main_s,
        "spans": cycle["spans"],
        "counts": dict(cycle["counts"]),
        "grid_cache": [hits, misses],
        "missing": tr.missing,
    }
    with open(timing, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
