"""Benchmark of the uinf workbench: three workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record DIR]
    python3 bench/run.py --compare DIR_A DIR_B

Run from a checkout that holds src/uinf; the benchmark imports uinf from
there and installs nothing. Every workload is one client in a closed loop,
single process and single thread (the BLAS thread variables are set to 1):

  cli-cold    fresh interpreters running all 13 subcommands with default
              flags through bench/launch.py, which does what the `uinf`
              console script does; start-up bound
  small-band  gauge-invariance draws, reductions, a radius scan, structure
              constants and identity suites at l_max <= 4; bound by
              per-call Python overhead
  large-grid  the monopole ladder at n = 4000, 16000, 64000 and bracket /
              product at L = 32, 48, 64; bound by array arithmetic

Set-up (import, seeded inputs and, in process, one warm pass) runs in SETUPS
fresh processes and setup_s is their median; in process, an untraced run
shares its cycles out among those same processes. The timed loop runs a fixed
number of whole cycles of the mix, sized from --seconds and the cycle time
on the reference machine (NOMINAL_CYCLE_S), so every run of a workload
times the same items in the same proportions and the tail percentile stays
put; a run that passes 3 x --seconds stops after the cycle in progress.
Each item's output is checked; a failed check counts against pass_frac.
A reference runs before every item and with every set-up (the kernel of
calib.py in process, a bare interpreter start for cli-cold), and every time
metric is read at the machine's reference speed (stats.rescale), because
the shared host drifts by up to 1.5x for tens of seconds at a time.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass that repeats the
cycles of an untraced one, and the ratio of the two passes' times is the
tracing overhead. Timings never reach uinf's stdout.
"""

import argparse
import glob
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import stats
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("cli-cold", "small-band", "large-grid")
SETUPS = 3
# Wall time of one cycle on the reference machine (2-core x86-64 VM, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread), reference runs included;
# the same machine runs up to 1.5x slower for minutes at a time. They fix
# how much work a run times, not a time limit.
NOMINAL_CYCLE_S = {"cli-cold": 15.0, "small-band": 1.7, "large-grid": 5.1}
MIN_CYCLES = 2
DEADLINE_S = 170
MAX_ERRORS = 5
CLI_SETUP_SPEED_SAMPLES = 3
# the reference of cli-cold: a bare interpreter start, whose time tracks the
# host's drift for start-up work where the in-process kernel does not; the
# constant is its median time on the reference machine
CLI_REFERENCE = [sys.executable, "-c", "pass"]
CLI_REFERENCE_S = 0.07
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = dict(os.environ, **{v: "1" for v in THREAD_VARS})
# children cache bytecode as an installed console script does, whatever the
# caller's setting; the first set-up process writes the cache
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)
CLI_ARGVS = [
    ["identities"],
    ["reduce", "scalar"],
    ["reduce", "ym"],
    ["reduce", "two-dim"],
    ["reduce", "scan-b"],
    ["reduce", "born-infeld"],
    ["monopole", "solve"],
    ["monopole", "energy"],
    ["monopole", "perturb"],
    ["monopole", "scan-evb"],
    ["algebra", "structure-constants"],
    ["algebra", "su2"],
    ["algebra", "bracket", "--f", "f.json", "--g", "g.json"],
]
IMPORT_MODULES = ("sphere_algebra", "tensor_kernels", "gauge_fields", "reduction", "monopole")
IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def spawn(cmd, stdout_path, stderr_path, cwd):
    """Run cmd to completion. Returns (exit code, rusage, seconds, start time
    on the monotonic clock)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CHILD_ENV, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, elapsed, started


def import_times(stderr_text):
    """Cumulative seconds of each uinf layer module from -X importtime."""
    out = {}
    for line in stderr_text.splitlines():
        m = IMPORTTIME.match(line)
        if m and m.group(2).startswith("uinf."):
            out[m.group(2)[5:]] = int(m.group(1)) / 1e6
    return {name: out.get(name, 0.0) for name in IMPORT_MODULES}


def cli_layer_metrics(interpreter, imports, mains, import_tables, output_bytes):
    """The cli.* per-layer metrics; each is a median over invocations."""
    med = statistics.median
    out = {
        "cli.interpreter_s": med(interpreter),
        "cli.import_s": med(imports),
        "cli.main_s": med(mains),
        "cli.output_bytes": med(output_bytes),
    }
    for name in IMPORT_MODULES:
        out["cli.import.%s_s" % name] = med(t[name] for t in import_tables)
    return out


# ---------------------------------------------------------------------------
# set-up and in-process workloads


def planned(workload, seconds, trace):
    """(cycles, deadline in seconds) of each measured pass. A traced run
    makes two passes, one untraced and one traced, of half the cycles."""
    cycles = max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))
    deadline = 3.0 * seconds
    if trace:
        return max(1, cycles // 2), deadline / 2.0
    return cycles, deadline


def run_worker(workload, seed, mode, run_dir, tag, cycles=0, deadline=0.0, trace=False):
    out = os.path.join(run_dir, "worker-%s.json" % tag)
    err = os.path.join(run_dir, "worker-%s.err" % tag)
    cmd = [sys.executable]
    if trace and mode == "measure":
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(BENCH, "worker.py"), workload, str(seed), str(cycles), str(deadline),
            "1" if trace else "0", mode, out, run_dir]
    rc, _, _, started = spawn(cmd, os.path.join(run_dir, "worker-%s.log" % tag), err, ROOT)
    with open(err) as fh:
        stderr_text = fh.read()
    if rc != 0:
        raise RuntimeError("worker %s exited %d:\n%s" % (tag, rc, stderr_text[-4000:]))
    with open(out) as fh:
        result = json.load(fh)
    result["spawned"] = started
    result["stderr"] = stderr_text
    return result


def cli_reference(run_dir):
    """One bare interpreter start: (monotonic start time, seconds)."""
    rc, _, elapsed, started = spawn(CLI_REFERENCE, os.devnull, os.devnull, run_dir)
    if rc != 0:
        raise RuntimeError("bare interpreter exited %d" % rc)
    return started, elapsed


def at_reference(res):
    """Set-up seconds of a worker result at the reference speed."""
    return res["setup_s"] * res["reference_s"] / statistics.median(res["setup_speed"])


def setups(workload, seed, run_dir, count):
    """`count` set-up processes. A cli-cold set-up is rescaled with bare
    interpreter starts just before it, like the cli-cold items."""
    out = []
    for i in range(count):
        speed = None
        if workload == "cli-cold":
            speed = [cli_reference(run_dir)[1] for _ in range(CLI_SETUP_SPEED_SAMPLES)]
        res = run_worker(workload, seed, "setup", run_dir, "setup%d" % i)
        if speed is not None:
            res["setup_speed"], res["reference_s"] = speed, CLI_REFERENCE_S
        out.append(res)
    return out


def run_in_process(workload, seed, seconds, trace, run_dir):
    """SETUPS worker processes, each timing its set-up. Untraced, the cycles
    are shared out among them and their items pooled, so that what one
    process's layout does to item times (hash seed, addresses) averages out;
    traced, the last one measures and the others only set up."""
    cycles, deadline = planned(workload, seconds, trace)
    if trace:
        shares = [0] * (SETUPS - 1) + [cycles]
    else:
        shares = [cycles // SETUPS + (k < cycles % SETUPS) for k in range(SETUPS)]
    runs = []
    for k, share in enumerate(shares):
        if share:
            runs.append(run_worker(workload, seed, "measure", run_dir, "measure%d" % k,
                                   share, deadline * share / cycles, trace))
        else:
            runs.append(run_worker(workload, seed, "setup", run_dir, "setup%d" % k))
    measured = [r for r in runs if "latencies" in r]
    last = measured[-1]
    layers = last["layers"]
    if trace:
        layers.update(cli_layer_metrics(
            [last["started"] - last["spawned"]], [last["import_s"]], [0.0],
            [import_times(last["stderr"])], [0]))
    reported = {}
    for r in measured:
        reported.update(r["reported"])
    return {
        "setup_times": [at_reference(r) for r in runs],
        "setup_raw": [r["setup_s"] for r in runs],
        "reference": "calib.py kernel",
        "reference_s": last["reference_s"],
        "versions": last["versions"],
        "latencies": [t for r in measured for t in r["latencies"]],
        "starts": [t for r in measured for t in r["starts"]],
        "speed": [x for r in measured for x in r["speed"]],
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "errors": [e for r in measured for e in r["errors"]][:MAX_ERRORS],
        "reported": reported,
        "cycles": sum(r["cycles"] for r in measured),
        "items_per_cycle": last["items_per_cycle"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in measured),
        "layers": layers,
        "trace_missing": last["trace_missing"],
    }


# ---------------------------------------------------------------------------
# cli-cold


def _finite_constant(text):
    raise ValueError("non-finite number in JSON: %s" % text)


def output_parses(text):
    """JSON without non-finite numbers, or CSV with a '# key = value' meta
    header, a column line and rows of finite numbers of that width."""
    if text.lstrip().startswith("{"):
        try:
            json.loads(text, parse_constant=_finite_constant)
        except ValueError:
            return False
        return True
    lines = text.splitlines()
    meta = 0
    while meta < len(lines) and lines[meta].startswith("# "):
        if " = " not in lines[meta]:
            return False
        meta += 1
    if meta == 0 or meta + 1 >= len(lines):
        return False
    width = len(lines[meta].split(","))
    for row in lines[meta + 1:]:
        cells = row.split(",")
        if len(cells) != width:
            return False
        try:
            if not all(math.isfinite(float(c)) for c in cells):
                return False
        except ValueError:
            return False
    return True


def cli_problem(rc, output, first):
    """Why one invocation failed its checks, or None."""
    if rc != 0:
        return "exit code %d" % rc
    if not output_parses(output.decode("utf-8", "replace")):
        return "output does not parse"
    if output != first:
        return "output differs from the first run of the same argv"
    return None


class CliPass:
    """Latencies, failures and, when traced, launcher records of one pass."""

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.speed = []
        self.failed = 0
        self.errors = []
        self.peak_kb = 0
        self.cycles = []  # per cycle: {"spans", "counts", "bytes"}
        self.timings = []  # (launcher record, import table, spawn time)
        self.grid_cache = [0, 0]

    def rescaled(self):
        return stats.rescale(self.latencies, self.starts, self.speed, CLI_REFERENCE_S)

    def add_record(self, cycle, record, table, spawned):
        self.timings.append((record, table, spawned))
        for name, (calls, self_s) in record["spans"].items():
            acc = cycle["spans"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in record["counts"].items():
            cycle["counts"][name] = cycle["counts"].get(name, 0) + value
        self.grid_cache[0] += record["grid_cache"][0]
        self.grid_cache[1] += record["grid_cache"][1]


def cli_cycles(run_dir, cycles, deadline, first_outputs, traced=False):
    """Whole cycles of the 13 invocations, as in worker.run_cycles."""
    done = CliPass()
    start = time.perf_counter()
    while len(done.cycles) < cycles and (
            not done.cycles or time.perf_counter() - start < deadline):
        cycle = {"spans": {}, "counts": {}, "bytes": 0}
        for k, argv in enumerate(CLI_ARGVS):
            out_path = os.path.join(run_dir, "cli-%d.out" % k)
            err_path = os.path.join(run_dir, "cli-%d.err" % k)
            timing = os.path.join(run_dir, "cli-%d.timing.json" % k)
            cmd = [sys.executable, os.path.join(BENCH, "launch.py")]
            if traced:
                cmd[1:1] = ["-X", "importtime"]
                cmd += ["--timing", timing]
            done.speed.append(cli_reference(run_dir))
            rc, usage, elapsed, spawned = spawn(cmd + argv, out_path, err_path, run_dir)
            done.latencies.append(elapsed)
            done.starts.append(spawned)
            done.peak_kb = max(done.peak_kb, usage.ru_maxrss)
            with open(out_path, "rb") as fh:
                output = fh.read()
            with open(err_path, errors="replace") as fh:
                stderr_text = fh.read()
            cycle["bytes"] += len(output)
            key = " ".join(argv)
            problem = cli_problem(rc, output, first_outputs.setdefault(key, output))
            if problem:
                done.failed += 1
                if len(done.errors) < MAX_ERRORS:
                    done.errors.append("%s: %s %s" % (key, problem, stderr_text[-500:]))
            if traced and os.path.exists(timing):
                with open(timing) as fh:
                    record = json.load(fh)
                os.remove(timing)
                done.add_record(cycle, record, import_times(stderr_text), spawned)
        done.cycles.append(cycle)
    done.speed.append(cli_reference(run_dir))
    return done


def run_cli_cold(seed, seconds, trace, run_dir):
    setup_runs = setups("cli-cold", seed, run_dir, SETUPS)
    first_outputs = {}
    cycles, deadline = planned("cli-cold", seconds, trace)
    plain = cli_cycles(run_dir, cycles, deadline, first_outputs)
    passes = [plain]
    layers = {}
    if trace:
        traced = cli_cycles(run_dir, len(plain.cycles), deadline, first_outputs, traced=True)
        passes.append(traced)
        layers = tracer.layer_metrics(traced.cycles, *traced.grid_cache)
        layers["trace.overhead_ratio"] = sum(traced.rescaled()) / sum(plain.rescaled())
        layers.update(cli_layer_metrics(
            [rec["started"] - spawned for rec, _, spawned in traced.timings],
            [rec["import_s"] for rec, _, _ in traced.timings],
            [rec["main_s"] for rec, _, _ in traced.timings],
            [table for _, table, _ in traced.timings],
            [c["bytes"] for c in traced.cycles]))
    return {
        "setup_times": [at_reference(r) for r in setup_runs],
        "setup_raw": [r["setup_s"] for r in setup_runs],
        "reference": "bare interpreter start",
        "reference_s": CLI_REFERENCE_S,
        "versions": setup_runs[0]["versions"],
        "latencies": plain.latencies,
        "starts": plain.starts,
        "speed": plain.speed,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors],
        "reported": {},
        "cycles": len(plain.cycles),
        "items_per_cycle": len(CLI_ARGVS),
        "peak_rss_mb": max(p.peak_kb for p in passes) / 1024.0,
        "layers": layers,
        "trace_missing": sorted({m for p in passes for rec, _, _ in p.timings
                                 for m in rec["missing"]}),
    }


# ---------------------------------------------------------------------------
# metrics, output and comparison


def rescaled(res):
    """Item times of a result at the reference speed."""
    return stats.rescale(res["latencies"], res["starts"], res["speed"], res["reference_s"])


def end_to_end(res):
    lat = rescaled(res)
    tail_value, _, _ = stats.tail(lat)
    return {
        "setup_s": statistics.median(res["setup_times"]),
        "throughput_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "pass_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError("metrics not produced: %s" % ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def compare(dir_a, dir_b, spec):
    """One row per workload and end-to-end metric: medians and quartiles of
    both result sets and the verdict against the metric's bound."""
    def load(directory):
        runs = {}
        for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
            with open(path) as fh:
                rec = json.load(fh)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
        return runs

    a, b = load(dir_a), load(dir_b)
    print("%-11s %-17s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)",
        "change", "bound", "verdict"))
    for workload in [w for w in WORKLOADS if w in a and w in b]:
        for m in spec["end_to_end"]:
            va = [r[m["name"]]["value"] for r in a[workload]]
            vb = [r[m["name"]]["value"] for r in b[workload]]
            cells = []
            for v in (va, vb):
                q1, med, q3 = stats.quartiles(v)
                cells.append("%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, len(v)))
            base = statistics.median(va)
            change = (statistics.median(vb) - base) / base if base else 0.0
            print("%-11s %-17s %-34s %-34s %+7.1f%% %5.1f%%  %s" % (
                workload, m["name"], cells[0], cells[1], 100.0 * change, 100.0 * m["bound"],
                stats.verdict(va, vb, m["bound"], m["better"])))
    return 0


def _stop(signum, frame):
    """Turn the deadline alarm or a termination request into an exception,
    so the child in progress is killed and waited for."""
    raise RuntimeError("stopped by signal %d (deadline %d s)" % (signum, DEADLINE_S))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="DIR", help="also write the full result here")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "uinf", "__init__.py")):
        print("error: no uinf package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "threads": {v: CHILD_ENV[v] for v in THREAD_VARS},
    }
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    run_dir = os.path.join(ROOT, ".bench_work", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir)
    try:
        if args.workload == "cli-cold":
            res = run_cli_cold(args.seed, args.seconds, args.trace, run_dir)
        else:
            res = run_in_process(args.workload, args.seed, args.seconds, args.trace, run_dir)
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    env.update(res["versions"])

    lat = res["latencies"]
    tail_value, tail_pct, n = stats.tail(lat)
    if args.trace:
        metrics = select(spec["per_layer"], res["layers"])
    else:
        metrics = select(spec["end_to_end"], end_to_end(res))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    print("environment: %s" % json.dumps(env, sort_keys=True))
    print("%s: %d items in %d of %d planned cycles of %d, closed loop, one client%s" % (
        args.workload, n, res["cycles"], planned(args.workload, args.seconds, args.trace)[0],
        res["items_per_cycle"], ", untraced pass" if args.trace else ""))
    print("latency_tail_s is the p%.1f of %d items (%d beyond it)" % (
        tail_pct, n, stats.TAIL_BEYOND if n > stats.TAIL_BEYOND else 0))
    print("setup_s samples at reference speed: %s; as measured: %s" % (
        ", ".join("%.4f" % t for t in res["setup_times"]),
        ", ".join("%.4f" % t for t in res["setup_raw"])))
    print("reference (%s): median %.5f s over %d runs, %.5f s at reference speed; "
          "median item time as measured %.5f s" % (
              res["reference"], statistics.median(d for _, d in res["speed"]),
              len(res["speed"]), res["reference_s"], statistics.median(lat)))
    for name, value in sorted(res["reported"].items()):
        print("reported, not checked (known failure, target -1): %s = %.6f" % (name, value))
    for line in res["errors"]:
        print("failed item: %s" % line)
    if res["trace_missing"]:
        print("trace targets not found: %s" % ", ".join(res["trace_missing"]))
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        path = os.path.join(args.record, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "environment": env, "reported": res["reported"],
                       "tail_percentile": tail_pct, "items": n, "result": result,
                       "latencies": lat, "starts": res["starts"], "speed": res["speed"],
                       "setup_times": res["setup_times"], "setup_raw": res["setup_raw"]},
                      fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
