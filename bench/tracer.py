"""Spans around the calls into each uinf layer, recorded from outside the
package.

The wrappers replace a public function at every binding site: the module
that defines it and every uinf module that imported it by name (gauge_fields
and reduction bind `bracket` and `integral_of_product` directly), so no call
escapes its span. `HarmonicField.grad_values` is wrapped on the class, and
the class constructor only counts. Spans of one item share the item's id,
which is a (cycle, position) pair, and stay in memory until the run ends.
"""

import functools
import statistics
import sys
import time
from collections import Counter

from stats import self_times

# (module, attribute, span name). Two functions may share one span name.
FUNCTIONS = [
    ("uinf.sphere_algebra", "bracket", "sphere_algebra.bracket"),
    ("uinf.sphere_algebra", "product", "sphere_algebra.product"),
    ("uinf.sphere_algebra", "synthesize", "sphere_algebra.synthesize"),
    ("uinf.sphere_algebra", "analyze", "sphere_algebra.analyze"),
    ("uinf.sphere_algebra", "integral_of_product", "sphere_algebra.integral_of_product"),
    ("uinf.sphere_algebra", "structure_constants", "sphere_algebra.structure_constants"),
    ("uinf.tensor_kernels", "identity_suite", "tensor_kernels.identity_suite"),
    ("uinf.gauge_fields", "yang_mills_integral", "gauge_fields.yang_mills_integral"),
    ("uinf.gauge_fields", "scalar_kinetic_integral", "gauge_fields.scalar_kinetic_integral"),
    ("uinf.gauge_fields", "gauge_transform_config", "gauge_fields.gauge_transform"),
    ("uinf.gauge_fields", "gauge_transform_scalar", "gauge_fields.gauge_transform"),
    ("uinf.reduction", "reduce_scalar", "reduction.reduce_scalar"),
    ("uinf.reduction", "reduce_yang_mills", "reduction.reduce_yang_mills"),
    ("uinf.reduction", "b_scan", "reduction.b_scan"),
    ("uinf.reduction", "born_infeld_report", "reduction.born_infeld_report"),
    ("uinf.monopole", "bps_profile", "monopole.bps_profile"),
    ("uinf.monopole", "energy_breakdown", "monopole.energy_breakdown"),
    ("uinf.monopole", "solve_perturbation", "monopole.solve_perturbation"),
    ("uinf.monopole", "spsolve", "monopole.spsolve"),
    ("uinf.monopole", "perturbation_report", "monopole.perturbation_report"),
    ("uinf.monopole", "second_line_integral", "monopole.second_line_integral"),
]
# (module, class, method, span name)
METHODS = [
    ("uinf.sphere_algebra", "HarmonicField", "grad_values", "sphere_algebra.gradient"),
]
SPAN_NAMES = list(dict.fromkeys(name for *_, name in FUNCTIONS + METHODS))

CONSTRUCTIONS = "sphere_algebra.field_constructions"
DRAWS = "tensor_kernels.draws"
REDRAWS = "tensor_kernels.redraws"


def _count_draws(counts, item, suite):
    for row in suite.values():
        counts[item, DRAWS] += row["draws"]
        counts[item, REDRAWS] += row["redraws"]


OBSERVERS = {"tensor_kernels.identity_suite": _count_draws}


class Tracer:
    """Records spans and counters while an item runs under `run_item`."""

    def __init__(self):
        self.spans = []  # (item, span_id, parent_id, name, t0, t1)
        self.counts = Counter()  # (item, counter name) -> count
        self.item = None
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    def _span(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.item, sid, parent, name, t0, t1))

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            if observe is not None:
                observe(self.counts, self.item, result)
            return result

        return traced

    def _wrap_counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.item is not None:
                self.counts[self.item, name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target at every binding site among loaded uinf modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uinf" or n.startswith("uinf."))]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.missing.append("%s.%s.%s" % (modname, clsname, attr))
                continue
            self._replace(cls, attr, self._wrap(name, original))
        cls = sys.modules["uinf.sphere_algebra"].HarmonicField
        self._replace(cls, "__init__", self._wrap_counter(CONSTRUCTIONS, cls.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def run_item(self, item, fn):
        """Call fn() as the root span of one item."""
        self.item = item
        try:
            return self._span("item", fn, (), {})
        finally:
            self.item = None

    def per_cycle(self):
        """{cycle: {"spans": {name: [calls, self_s]}, "counts": Counter}}."""
        selfs = self_times((sid, parent, t0, t1) for _, sid, parent, _, t0, t1 in self.spans)
        out = {}
        for item, sid, _, name, _, _ in self.spans:
            if name == "item":
                continue
            entry = out.setdefault(item[0], {"spans": {}, "counts": Counter()})
            acc = entry["spans"].setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += selfs[sid]
        for (item, key), value in self.counts.items():
            out.setdefault(item[0], {"spans": {}, "counts": Counter()})["counts"][key] += value
        return out


def grid_cache_counts():
    """(hits, misses) of the band-limit grid cache, or (0, 0) without one."""
    grid_fn = getattr(sys.modules.get("uinf.sphere_algebra"), "grid_for_band_limit", None)
    info = getattr(grid_fn, "cache_info", None)
    if info is None:
        return 0, 0
    info = info()
    return info.hits, info.misses


def layer_metrics(cycles, cache_hits, cache_misses):
    """Per-layer metrics from per-cycle span sums: medians over cycles of each
    span's calls and self time, plus the counters' ratios over the run."""
    cycles = list(cycles) or [{"spans": {}, "counts": {}}]
    out = {}
    for name in SPAN_NAMES:
        calls = [c["spans"].get(name, [0, 0.0])[0] for c in cycles]
        selfs = [c["spans"].get(name, [0, 0.0])[1] for c in cycles]
        out[name + ".calls"] = statistics.median(calls)
        out[name + ".self_s"] = statistics.median(selfs)
    out[CONSTRUCTIONS] = statistics.median(c["counts"].get(CONSTRUCTIONS, 0) for c in cycles)
    draws = sum(c["counts"].get(DRAWS, 0) for c in cycles)
    redraws = sum(c["counts"].get(REDRAWS, 0) for c in cycles)
    out["tensor_kernels.accept_ratio"] = draws / (draws + redraws) if draws + redraws else 0.0
    lookups = cache_hits + cache_misses
    out["sphere_algebra.grid_cache.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    return out
