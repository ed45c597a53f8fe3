"""Item mixes of the benchmark: seeded inputs, the timed call of each item and
the check of its output.

One cycle of a mix is a fixed list of items in a fixed order; the seed
draws every input, never how many items there are of each kind or their
order, so every seed times the same amount of work. Checks run outside the timed call and outside
any span. Importing this module imports numpy and uinf.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from uinf import gauge_fields, monopole, reduction, sphere_algebra, tensor_kernels

XI_MAX = 25.0
RADII = (0.4, 0.2, 0.1, 0.05)


@dataclass
class Item:
    name: str
    call: Callable
    check: Callable  # output -> (ok, {reported name: value})
    warm: bool = True


def _lorentz(dim):
    g = np.eye(dim)
    g[0, 0] = -1.0
    return g


def _rel(diff, scale):
    return diff / max(scale, 1e-300)


# ---------------------------------------------------------------------------
# small-band: thousands of transforms on grids of at most 13 x 25 nodes


def _gauge_draw(dim, rng):
    """First variation of both action integrals along a gauge motion, as in
    acceptance criterion 04: exact four-point difference with step h."""
    h = 0.5
    cfg = gauge_fields.random_gauge_config(dim, 2, rng, amplitude=0.5)
    scal = gauge_fields.random_adjoint_scalar(dim, 2, rng, amplitude=0.5)
    omega = sphere_algebra.random_real_field(2, rng, amplitude=0.7)
    domega = [sphere_algebra.random_real_field(2, rng, amplitude=0.7) for _ in range(dim)]
    metric = _lorentz(dim)

    def variation(vals, base):
        m2, m1, p1, p2 = vals
        return abs((8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)) / max(abs(base), 1.0)

    def call():
        i_ym = gauge_fields.yang_mills_integral(cfg, metric)
        i_kin = gauge_fields.scalar_kinetic_integral(cfg, scal, metric)
        ym, kin = [], []
        for t in (-2 * h, -h, h, 2 * h):
            cfg_t = gauge_fields.gauge_transform_config(cfg, omega, domega, t)
            scal_t = gauge_fields.gauge_transform_scalar(scal, omega, domega, t, cfg.coupling)
            ym.append(gauge_fields.yang_mills_integral(cfg_t, metric))
            kin.append(gauge_fields.scalar_kinetic_integral(cfg_t, scal_t, metric))
        return variation(ym, i_ym), variation(kin, i_kin)

    return Item("gauge_draw[d=%d]" % dim, call, lambda out: (max(out) < 1e-10, {}))


def _draw_jets(rng):
    cfg = gauge_fields.random_gauge_config(4, 3, rng, amplitude=0.4)
    scal = gauge_fields.random_adjoint_scalar(4, 3, rng, amplitude=0.4)
    return cfg, scal


def _reduction_ok(rep):
    """The route residual rule of the `reduce` subcommands."""
    routes = (rep["classification_residual_rel"], rep["covariant_identity_rel"],
              rep["forward_scan_residual_rel"])
    return all(r <= 1e-10 for r in routes) and rep["vanishing_group_rel"] <= 1e-12


def _reduce(sector, rng):
    cfg, scal = _draw_jets(rng)
    metric = reduction.BlockMetric(_lorentz(4), 1.0)
    bg = reduction.Background(2.0)
    if sector == "scalar":
        call = lambda: reduction.reduce_scalar(cfg, scal, metric, bg)  # noqa: E731
    else:
        call = lambda: reduction.reduce_yang_mills(cfg, metric, bg)  # noqa: E731
    return Item("reduce_" + sector, call, lambda rep: (_reduction_ok(rep), {}))


def _b_scan(rng):
    cfg, scal = _draw_jets(rng)
    bg = reduction.Background(2.0)

    def check(scan):
        ratios = [row["ratio"] for row in scan["rows"]]
        return all(math.isfinite(r) for r in ratios) and scan["fit_exponent"] >= 1.95, {}

    return Item("b_scan", lambda: reduction.b_scan(cfg, scal, _lorentz(4), bg, RADII), check)


def _structure_constants():
    def check(tensor):
        return bool(np.array_equal(tensor, -np.transpose(tensor, (1, 0, 2)))), {}

    return Item("structure_constants[4]", lambda: sphere_algebra.structure_constants(4), check)


def _identities(rng):
    seed = int(rng.integers(2**32))

    def call():
        return tensor_kernels.identity_suite(trials=200, rng=np.random.default_rng(seed))

    return Item("identity_suite[200]", call,
                lambda suite: (max(r["spread"] for r in suite.values()) < 1e-10, {}))


def small_band(rng):
    # eight reductions, the cheapest kind, below the four dim-2 draws and
    # eight dearer items above them, so the median item is a dim-2 draw and
    # not the border between two kinds
    items = [_reduce(sector, rng) for sector in ("scalar", "yang_mills") for _ in range(4)]
    items.append(_b_scan(rng))
    items += [_gauge_draw(2, rng) for _ in range(4)]
    items += [_gauge_draw(dim, rng) for dim in (3, 3, 4, 4)]
    items += [_structure_constants(), _identities(rng), _identities(rng)]
    return items


# ---------------------------------------------------------------------------
# large-grid: radial grids up to 64k nodes and fields up to L = 64


def _monopole_ladder(n, rng, extra_solves=0):
    """The four monopole kinds at n nodes, and extra_solves more perturb
    items."""
    grid = monopole.RadialGrid(XI_MAX, n)
    profile = monopole.bps_profile(grid)
    evbs = sorted(float(x) for x in rng.uniform(0.05, 0.5, size=3))
    warm = n == 4000  # no cache to fill; warming larger n would only lengthen set-up

    def check_profile(prof):
        r1, r2 = monopole.bogomolnyi_residuals(prof)
        ok = np.isfinite(prof.K).all() and np.isfinite(prof.H).all()
        return bool(ok and max(np.abs(r1).max(), np.abs(r2).max()) <= 1e-8), {}

    def check_energy(breakdown):
        return abs(breakdown.completed - 1.0) <= 1e-4, {}

    def perturb():
        pert = monopole.solve_perturbation(profile)
        return pert, monopole.perturbation_report(profile, pert=pert)

    def check_perturb(out):
        pert, rep = out
        ok = (np.isfinite(pert.K1).all() and np.isfinite(pert.H1).all()
              and abs(rep["origin_exponent_K"] - 2.0) < 0.1
              and abs(rep["origin_exponent_H"] - 2.0) < 0.1
              and rep["linearity_r_squared"] > 0.9999)
        # criterion 11b fails by design; its slope is reported, never checked
        return bool(ok), {"criterion_11b.tail_slope_K[n=%d]" % n: rep["tail_slope_K"]}

    def check_scan(rows):
        ok = all(math.isfinite(v) for row in rows for v in
                 (row["E0_integral"], row["correction_integral"], row["dE_over_E0"]))
        return ok and all(abs(row["E0_integral"] - 1.0) <= 1e-4 for row in rows), {}

    return [
        Item("bps_profile[n=%d]" % n, lambda: monopole.bps_profile(grid), check_profile, warm),
        Item("energy_breakdown[n=%d]" % n, lambda: monopole.energy_breakdown(profile),
             check_energy, warm),
        Item("energy_scan[n=%d]" % n, lambda: monopole.energy_scan(evbs, xi_max=XI_MAX, n=n),
             check_scan, warm),
    ] + [Item("perturb[n=%d]" % n, perturb, check_perturb, warm)] * (1 + extra_solves)


def _field_pair(L, rng):
    f = sphere_algebra.random_real_field(L, rng)
    g = sphere_algebra.random_real_field(L, rng)

    def check_bracket(fg):
        gf = sphere_algebra.bracket(g, f)
        return _rel((fg + gf).norm(), fg.norm()) <= 1e-10, {}

    def check_product(fg):
        exact = sphere_algebra.integral_of_product(f, g)
        return _rel(abs(fg.integrate() - exact), f.norm() * g.norm()) <= 1e-10, {}

    return [
        Item("bracket[L=%d]" % L, lambda: sphere_algebra.bracket(f, g), check_bracket),
        Item("product[L=%d]" % L, lambda: sphere_algebra.product(f, g), check_product),
    ]


def large_grid(rng):
    # three solves at n = 4000 per cycle: in a run of three cycles the six
    # solves at 16000 and 64000 lie above them, so the tail item (ten beyond
    # it) is the middle one of the nine 4000-node solves, not the border
    # between two kinds
    items = _monopole_ladder(4000, rng, extra_solves=2)
    for n in (16000, 64000):
        items += _monopole_ladder(n, rng)
    # 5, 6 and 3 field pairs at L = 32, 48, 64: eighteen items below the
    # L = 48 products (eight small monopole items and the L = 32 pairs) and
    # eighteen above them put the median item in the middle of the six
    # L = 48 products
    for L, pairs in ((32, 5), (48, 6), (64, 3)):
        for _ in range(pairs):
            items += _field_pair(L, rng)
    return items


# ---------------------------------------------------------------------------


def cli_fields(seed, work_dir):
    """The two L = 8 field files `algebra bracket` reads, in the layout of
    HarmonicField.to_dict. Returns their paths."""
    rng = np.random.default_rng(seed)
    paths = []
    for name in ("f", "g"):
        path = os.path.join(work_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(sphere_algebra.random_real_field(8, rng).to_dict(), fh)
        paths.append(path)
    return paths


MIXES = {"small-band": small_band, "large-grid": large_grid}
ORDER_SEED = 0


def build(workload, seed):
    """One cycle of the workload's items, with a second list holding the
    first item of each warmed kind. The seed draws the inputs; the order is
    one fixed shuffle for every seed, because an item's time depends on the
    heap each earlier item leaves behind."""
    items = MIXES[workload](np.random.default_rng(seed))
    order = np.random.default_rng(ORDER_SEED).permutation(len(items))
    items = [items[i] for i in order]
    warm = list({item.name: item for item in reversed(items) if item.warm}.values())
    return items, warm
