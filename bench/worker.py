"""One benchmark process: set-up, then the timed closed loop of one in-process
workload.

    python3 bench/worker.py WORKLOAD SEED CYCLES DEADLINE TRACE MODE OUT WORK_DIR

Set-up imports uinf, draws the inputs from SEED and, for the in-process
workloads, makes one warm pass. MODE `setup` stops there; MODE `measure`
then runs CYCLES whole cycles of the mix, one item at a time, stopping
early only after DEADLINE seconds. With TRACE 1 it then runs as many cycles
again with spans installed. The reference kernel of calib.py runs before
every item, outside its timing, and (except for cli-cold) nine times after
set-up, so set-up and item times can be read at the machine's reference
speed. The result goes to the JSON file OUT.
"""

import time

STARTED = time.monotonic()
T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calib  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_ERRORS = 5
SETUP_SPEED_SAMPLES = 9


def setup(workload, seed, work_dir):
    """Import, inputs and warm pass; returns (items, seconds spent importing)."""
    sys.path.insert(1, os.path.join(ROOT, "src"))
    t = time.perf_counter()
    import uinf.cli  # noqa: F401  what the console script imports
    import_s = time.perf_counter() - t
    import workloads

    if workload == "cli-cold":
        workloads.cli_fields(seed, work_dir)
        return [], import_s
    items, warm = workloads.build(workload, seed)
    for item in warm:
        item.call()
    return items, import_s


class Pass:
    """Latencies, failures and reported values of one measured pass."""

    def __init__(self):
        self.latencies = []
        self.starts = []  # start of each item on the monotonic clock
        self.speed = []  # reference kernel runs, before each item and at the end
        self.failed = 0
        self.cycles = 0
        self.reported = {}
        self.errors = []

    def attempt(self, item, call):
        self.speed.append(calib.reference())
        started = time.monotonic()
        t = time.perf_counter()
        try:
            out = call()
        except Exception:
            self._timed(started, time.perf_counter() - t)
            self._fail(item, traceback.format_exc())
            return
        self._timed(started, time.perf_counter() - t)
        try:
            ok, values = item.check(out)
        except Exception:
            self._fail(item, traceback.format_exc())
            return
        self.reported.update(values)
        if not ok:
            self._fail(item, "check failed")

    def _timed(self, started, elapsed):
        self.latencies.append(elapsed)
        self.starts.append(started)

    def rescaled(self):
        return stats.rescale(self.latencies, self.starts, self.speed, calib.REFERENCE_S)

    def _fail(self, item, detail):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append("%s: %s" % (item.name, detail))


def run_cycles(items, cycles, deadline, tracer=None):
    """`cycles` whole cycles of items, fewer only once `deadline` s passed."""
    done = Pass()
    start = time.perf_counter()
    while done.cycles < cycles and (done.cycles == 0 or time.perf_counter() - start < deadline):
        for pos, item in enumerate(items):
            if tracer is None:
                done.attempt(item, item.call)
            else:
                item_id = (done.cycles, pos)
                done.attempt(item, lambda: tracer.run_item(item_id, item.call))
        done.cycles += 1
    done.speed.append(calib.reference())
    return done


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def measure(items, cycles, deadline, trace):
    """Measured passes and, with trace, the per-layer metrics of the traced one."""
    if not trace:
        return [run_cycles(items, cycles, deadline)], {}, []
    import tracer

    plain = run_cycles(items, cycles, deadline)
    tr = tracer.Tracer()
    tr.install()
    hits0, misses0 = tracer.grid_cache_counts()
    traced = run_cycles(items, plain.cycles, deadline, tracer=tr)
    hits1, misses1 = tracer.grid_cache_counts()
    tr.uninstall()
    layers = tracer.layer_metrics(tr.per_cycle().values(), hits1 - hits0, misses1 - misses0)
    layers["trace.overhead_ratio"] = sum(traced.rescaled()) / sum(plain.rescaled())
    return [plain, traced], layers, tr.missing


def main():
    workload, seed, cycles, deadline, trace, mode, out_path, work_dir = sys.argv[1:9]
    items, import_s = setup(workload, int(seed), work_dir)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "import_s": import_s, "started": STARTED,
              "versions": versions(), "reference_s": calib.REFERENCE_S}
    if workload != "cli-cold":  # whose set-up the caller rescales
        result["setup_speed"] = [d for _, d in calib.speed_samples(SETUP_SPEED_SAMPLES)]
    if mode == "measure":
        passes, layers, missing = measure(items, int(cycles), float(deadline), trace == "1")
        reported = {}
        for p in passes:
            reported.update(p.reported)
        result.update({
            "latencies": passes[0].latencies,
            "starts": passes[0].starts,
            "speed": passes[0].speed,
            "cycles": passes[0].cycles,
            "items_per_cycle": len(items),
            "attempted": sum(len(p.latencies) for p in passes),
            "failed": sum(p.failed for p in passes),
            "errors": [e for p in passes for e in p.errors],
            "reported": reported,
            "layers": layers,
            "trace_missing": missing,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
