from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uinf import reduction
from uinf.gauge_fields import (
    AdjointScalar,
    GaugeConfig,
    random_adjoint_scalar,
    random_gauge_config,
    scalar_kinetic_integral,
    yang_mills_integral,
)
from uinf.reduction import (
    Background,
    BlockMetric,
    b_scan,
    born_infeld_report,
    reduce_scalar,
    reduce_yang_mills,
    two_dim_report,
)
from uinf.sphere_algebra import random_real_field, synthesize
from conftest import lorentz, zero_field

# frozen outputs for the seed 0 draw (dim 4, l_max 3, amplitude 0.4, e = 2)
SCALAR_GROUPS_B1 = (
    -0.5813614633039715,
    -0.03578010074760474,
    0.41989141299121097,
)
SCALAR_TOTAL_B1 = -0.19725015106036528
YM_GROUPS_B1 = (
    -2.4390898406725743,
    -3.525661582219011,
    -0.05050907243435269,
)
B_SCAN_EXPONENT = 2.5876502650226536
# every group integral of the seed 0 draw, bit for bit
SCALAR_GROUPS_EXACT = {
    1.0: [-0.5813614633039716, -0.035780100747604786, 0.4198914129912112,
          1.477525844598393e-17],
    0.05: [-0.5813614633039716, -14.31204029904191, 67182.62607859375,
           -4.0871586496010704e-10],
}
YM_GROUPS_EXACT = {
    1.0: [-2.4390898406725743, -3.525661582219012, -0.05050907243435319,
          -7.017898359635546e-17, 0.0],
    0.05: [-2.4390898406725743, -1410.2646328876046, -8081.451589496634,
           5.119238071703531e-08, 3.9056228628930146e-05],
}
TWO_DIM_CONSTANT = 64.0


def metric4(b):
    return BlockMetric(lorentz(4), b)


def test_scalar_report_frozen_values(seed0_fields, background):
    cfg, scal = seed0_fields
    rep = reduce_scalar(cfg, scal, metric4(1.0), background)
    got = rep["group_integrals"]
    for value, frozen in zip(got[:3], SCALAR_GROUPS_B1):
        assert value == pytest.approx(frozen, rel=1e-12)
    assert rep["total"] == pytest.approx(SCALAR_TOTAL_B1, rel=1e-12)
    assert rep["sign_s"] == 1.0


def test_scalar_routes_agree(seed0_fields, background):
    cfg, scal = seed0_fields
    rep = reduce_scalar(cfg, scal, metric4(1.0), background)
    assert rep["classification_residual_rel"] < 1e-13
    assert rep["forward_scan_residual_rel"] < 1e-13
    assert rep["covariant_identity_rel"] < 1e-13
    assert rep["vanishing_group_rel"] < 1e-12


def test_yang_mills_routes_agree(seed0_fields, background):
    cfg, _ = seed0_fields
    rep = reduce_yang_mills(cfg, metric4(1.0), background)
    got = rep["group_integrals"]
    for value, frozen in zip(got[:3], YM_GROUPS_B1):
        assert value == pytest.approx(frozen, rel=1e-12)
    assert rep["classification_residual_rel"] < 1e-13
    assert rep["forward_scan_residual_rel"] < 1e-13
    assert rep["covariant_identity_rel"] < 1e-12
    assert rep["vanishing_group_rel"] < 1e-12


def test_group_integrals_scale_exactly_with_radius(seed0_fields, background):
    """Shrinking the sphere radius rescales group k by b^(-2k)."""
    cfg, scal = seed0_fields
    base = reduce_scalar(cfg, scal, metric4(1.0), background)["group_integrals"]
    for b in (0.5, 0.1):
        rep = reduce_scalar(cfg, scal, metric4(b), background)
        for k in range(3):
            expected = base[k] * b ** (-2 * k)
            assert rep["group_integrals"][k] == pytest.approx(expected, rel=1e-10)


def test_covariant_constants(seed0_fields, background):
    """The covariant route divides out to 2/q^2 in the scalar sector and
    4/q^2 in the gauge sector."""
    cfg, scal = seed0_fields
    q = background.q
    rep_s = reduce_scalar(cfg, scal, metric4(1.0), background)
    rep_y = reduce_yang_mills(cfg, metric4(1.0), background)
    assert rep_s["covariant_constant"] == pytest.approx(2.0 / q**2, rel=1e-9)
    assert rep_y["covariant_constant"] == pytest.approx(4.0 / q**2, rel=1e-9)


def _identity_rel(rep, covariant, b):
    lhs = rep["group_integrals"][2] * b**4
    rhs = rep["covariant_constant"] * covariant
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("sector", ["scalar", "yang_mills"])
def test_covariant_identity_holds_at_q_and_fails_at_minus_q(seed0_fields, background, sector):
    """The covariant route is evaluated at the flux coupling q alone; with the
    coupling -q the same identity misses by far more than rounding."""
    cfg, scal = seed0_fields
    q, spacetime = background.q, lorentz(4)
    if sector == "scalar":
        rep = reduce_scalar(cfg, scal, metric4(1.0), background)
        flipped = scalar_kinetic_integral(replace(cfg, coupling=-q), scal, spacetime)
    else:
        rep = reduce_yang_mills(cfg, metric4(1.0), background)
        flipped = yang_mills_integral(replace(cfg, coupling=-q), spacetime)
    assert rep["sign_s"] == 1.0
    assert _identity_rel(rep, rep["covariant_integral"], 1.0) == rep["covariant_identity_rel"]
    assert rep["covariant_identity_rel"] < 1e-12
    assert _identity_rel(rep, flipped, 1.0) > 1e-4


def _count_calls(monkeypatch, calls, name):
    real = getattr(reduction, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(reduction, name, counted)


@pytest.mark.parametrize("report, route", [
    ("scalar", "scalar_kinetic_integral"),
    ("yang_mills", "yang_mills_integral"),
    ("two_dim", "yang_mills_integral"),
])
def test_each_report_evaluates_the_covariant_route_once(monkeypatch, seed0_fields, background,
                                                        report, route):
    cfg, scal = seed0_fields
    calls = []
    for name in ("scalar_kinetic_integral", "yang_mills_integral"):
        _count_calls(monkeypatch, calls, name)
    if report == "scalar":
        reduce_scalar(cfg, scal, metric4(1.0), background)
    elif report == "yang_mills":
        reduce_yang_mills(cfg, metric4(1.0), background)
    else:
        cfg2 = random_gauge_config(2, 3, np.random.default_rng(0), amplitude=0.4)
        two_dim_report(cfg2, BlockMetric(lorentz(2), 1.0), background)
    assert calls == [route]


def test_scalar_report_carries_grid_and_flux_metadata(seed0_fields, background):
    cfg, scal = seed0_fields
    rep = reduce_scalar(cfg, scal, metric4(0.25), background)
    assert rep["dim"] == 4
    assert rep["b"] == 0.25
    assert rep["q_scaled"] == pytest.approx(background.q * 0.25**2)
    assert rep["quantization_ok"]
    assert rep["total_4pi"] == pytest.approx(rep["total"] / (4.0 * np.pi), rel=1e-15)


def test_b_scan_fit_exponent(seed0_fields, background):
    cfg, scal = seed0_fields
    scan = b_scan(cfg, scal, lorentz(4), background, [0.4, 0.2, 0.1, 0.05])
    assert scan["fit_exponent"] == pytest.approx(B_SCAN_EXPONENT, abs=1e-9)
    assert scan["fit_exponent"] >= 1.95
    assert len(scan["rows"]) == 4


def test_b_scan_needs_two_radii(seed0_fields, background):
    cfg, scal = seed0_fields
    with pytest.raises(ValueError):
        b_scan(cfg, scal, lorentz(4), background, [0.3])


def test_two_dim_constant(background):
    rng = np.random.default_rng(0)
    cfg = random_gauge_config(2, 3, rng, amplitude=0.4)
    rep = two_dim_report(cfg, BlockMetric(lorentz(2), 1.0), background)
    assert rep["measured_constant"] == pytest.approx(TWO_DIM_CONSTANT, rel=1e-12)
    assert rep["pointwise_residual_rel"] < 1e-13
    assert rep["group_0_rel"] == 0.0
    assert rep["group_1_rel"] < 1e-12


def test_pure_scalar_background_has_no_mass_terms(background):
    """With zero potentials and a closed scalar jet every curvature group
    vanishes identically, not just numerically."""
    L = 3
    dim = 4
    zero = zero_field(L)
    cfg = GaugeConfig(dim, background.q, (zero,) * dim, ((zero,) * dim,) * dim)
    phi = random_real_field(L, np.random.default_rng(0), amplitude=0.4)
    scal = AdjointScalar(dim, phi, (zero,) * dim)
    rep = reduce_scalar(cfg, scal, metric4(1.0), background)
    groups = rep["group_integrals"]
    assert groups[0] == 0.0
    assert groups[1] == 0.0
    assert groups[2] == 0.0
    assert abs(groups[3]) < 1e-13


def test_scalar_requires_scalar_jet(seed0_fields, background):
    cfg, _ = seed0_fields
    with pytest.raises(ValueError):
        reduce_scalar(cfg, None, metric4(1.0), background)


def test_quantization_flag():
    assert Background(2.0).quantization_ok
    assert Background(1.0).quantization_ok
    assert not Background(3.0).quantization_ok
    with pytest.raises(ValueError):
        Background(0.0)


def test_born_infeld_drift_shrinks_with_radius(background):
    rng = np.random.default_rng(2)
    cfg = random_gauge_config(4, 2, rng, amplitude=0.25)
    drifts = []
    rhs_vals = []
    for b in (0.4, 0.2, 0.1, 0.05):
        rep = born_infeld_report(cfg, BlockMetric(lorentz(4), b), background, alpha=0.5, C=1.0)
        drifts.append(rep["drift"])
        rhs_vals.append(rep["rhs"])
    assert drifts == pytest.approx(
        [1.1763875983126157, 0.39763567408829703, 0.1038134931403013, 0.0261743181982651],
        rel=1e-10,
    )
    assert all(b < a for a, b in zip(drifts, drifts[1:]))
    # the flat side of the comparison does not depend on the sphere radius
    assert np.ptp(rhs_vals) < 1e-15


def test_born_infeld_expansion_suppression(background):
    rng = np.random.default_rng(2)
    cfg = random_gauge_config(4, 2, rng, amplitude=0.25)
    metric = BlockMetric(lorentz(4), 0.1)
    ratios = [
        born_infeld_report(cfg, metric, background, alpha=alpha, C=1.0)["suppression_ratio"]
        for alpha in (0.8, 0.4, 0.2, 0.1, 0.05)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(0.9892824147253547, rel=1e-10)


def test_born_infeld_quadratic_remainder(background):
    """The gap to the flux-subtracted quadratic model scales like alpha^2."""
    rng = np.random.default_rng(2)
    cfg = random_gauge_config(4, 2, rng, amplitude=0.25)
    metric = BlockMetric(lorentz(4), 0.5)
    resid = [
        born_infeld_report(cfg, metric, background, alpha=alpha, C=1.0)["kk_residual"]
        for alpha in (0.2, 0.1, 0.05, 0.025)
    ]
    for a, b in zip(resid, resid[1:]):
        assert a / b == pytest.approx(4.0, abs=0.35)


def test_block_metric_validation():
    with pytest.raises(ValueError):
        BlockMetric(lorentz(3), 0.0)
    with pytest.raises(ValueError):
        BlockMetric(np.ones((3, 2)), 1.0)
    m = BlockMetric(lorentz(3), 2.0)
    assert m.dim == 3


ROUTE_RESIDUALS = ("classification_residual_rel", "covariant_identity_rel",
                   "forward_scan_residual_rel")


def _routes_hold(rep):
    """The route checks of the reduce subcommands at their default bounds."""
    return (all(rep[name] <= 1e-10 for name in ROUTE_RESIDUALS)
            and rep["vanishing_group_rel"] <= 1e-12)


def _reduce(sector, cfg, scal, metric, background):
    if sector == "scalar":
        return reduce_scalar(cfg, scal, metric, background)
    return reduce_yang_mills(cfg, metric, background)


@pytest.mark.parametrize("b", [1.0, 0.05])
def test_group_integrals_are_the_frozen_bits(seed0_fields, background, b):
    """Summing each group's terms left to right is the arithmetic of the
    summed group densities, so every group integral keeps its bits."""
    cfg, scal = seed0_fields
    scalar = reduce_scalar(cfg, scal, metric4(b), background)
    assert scalar["group_integrals"] == SCALAR_GROUPS_EXACT[b]
    assert reduce_yang_mills(cfg, metric4(b), background)["group_integrals"] == YM_GROUPS_EXACT[b]


@pytest.mark.parametrize("sector", ["scalar", "yang_mills"])
@pytest.mark.parametrize("b", [1.0, 0.2, 0.05])
def test_residuals_are_measured_against_the_terms_they_sum(seed0_fields, background, sector, b):
    """Each residual is divided by the integrated magnitude of the terms it
    sums, so shrinking the sphere leaves every route check at rounding."""
    cfg, scal = seed0_fields
    rep = _reduce(sector, cfg, scal, metric4(b), background)
    mags = rep["group_magnitudes"]
    assert len(mags) == len(rep["group_integrals"]) and min(mags) > 0.0
    assert all(abs(g) <= m for g, m in zip(rep["group_integrals"], mags))
    assert rep["classification_residual_rel"] == rep["classification_residual_abs"] / sum(mags)
    assert rep["retained_fraction"] == abs(rep["total"]) / sum(mags)
    for name in ("classification_residual_rel", "forward_scan_residual_rel", "vanishing_group_rel"):
        assert rep[name] < 1e-15
    assert _routes_hold(rep)


@settings(max_examples=50, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=6),
    l_max=st.integers(min_value=1, max_value=4),
    amplitude=st.floats(min_value=0.01, max_value=3.0),
    log_b=st.floats(min_value=np.log(0.03), max_value=np.log(10.0)),
    q=st.sampled_from([2.0, -2.0, 0.5, 1.0, 2.0 / 3.0, 3.7]),
    lorentzian=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_route_checks_hold_over_draws(dim, l_max, amplitude, log_b, q, lorentzian, seed):
    """Every route check holds in both sectors over dimension, band limit,
    amplitude, radius, flux and signature."""
    rng = np.random.default_rng(seed)
    cfg = random_gauge_config(dim, l_max, rng, amplitude=amplitude)
    scal = random_adjoint_scalar(dim, l_max, rng, amplitude=amplitude)
    metric = BlockMetric(lorentz(dim) if lorentzian else np.eye(dim), float(np.exp(log_b)))
    for sector in ("scalar", "yang_mills"):
        rep = _reduce(sector, cfg, scal, metric, Background(q))
        assert _routes_hold(rep), {name: rep[name] for name in ROUTE_RESIDUALS}


# Single terms whose 1e-6 change no route check sees at b = 0.05, keyed by
# (sector, group, term), with the share of the total magnitude that the
# term's own magnitude takes on the seed 0 draw: the change moves the
# classification and forward-scan residuals by at most 1e-6 times that share.
MISSED_AT_B005 = {
    ("scalar", 1, 0): 3.29e-6,
    ("scalar", 1, 1): 3.48e-6,
    ("scalar", 1, 2): 3.06e-6,
    ("scalar", 1, 3): 3.46e-6,
    ("yang_mills", 1, 0): 1.24e-8,
    ("yang_mills", 1, 1): 1.44e-8,
}


@pytest.mark.parametrize("sector", ["scalar", "yang_mills"])
@pytest.mark.parametrize("b", [1.0, 0.05])
def test_one_term_off_by_a_millionth_fails_a_route(monkeypatch, seed0_fields, background,
                                                   sector, b):
    """Scaling any single group term by 1 + 1e-6 fails some route check, at
    b = 1 for every term and at b = 0.05 for all but the listed ones."""
    cfg, scal = seed0_fields
    name = "_scalar_groups" if sector == "scalar" else "_ym_groups"
    real = getattr(reduction, name)
    counts = []

    def counted(*args):
        groups = real(*args)
        counts.extend(len(terms) for terms in groups)
        return groups

    monkeypatch.setattr(reduction, name, counted)
    total_mag = sum(_reduce(sector, cfg, scal, metric4(b), background)["group_magnitudes"])
    for k, count in enumerate(counts):
        for j in range(count):
            shares = []

            def mutated(nd, grid, *rest, k=k, j=j):
                groups = real(nd, grid, *rest)
                shares.append(float(np.sum(grid.w2d * np.abs(groups[k][j]))) / total_mag)
                groups[k][j] = groups[k][j] * (1.0 + 1e-6)
                return groups

            monkeypatch.setattr(reduction, name, mutated)
            rep = _reduce(sector, cfg, scal, metric4(b), background)
            missed = MISSED_AT_B005.get((sector, k, j)) if b == 0.05 else None
            if missed is None:
                assert not _routes_hold(rep), (k, j)
            else:
                assert shares[0] == pytest.approx(missed, rel=0.01)


def test_b_scan_rows_carry_the_route_residuals(seed0_fields, background):
    cfg, scal = seed0_fields
    radii = [0.4, 0.05]
    scan = b_scan(cfg, scal, lorentz(4), background, radii)
    for row, b in zip(scan["rows"], radii):
        rep = reduce_scalar(cfg, scal, metric4(b), background)
        for name in ROUTE_RESIDUALS + ("vanishing_group_rel",):
            assert row[name] == rep[name]


def test_covariant_identity_scale_is_not_floored(monkeypatch, background):
    """At amplitude 1e-20 both sides of the covariant identity sit far below
    any fixed floor: the residual is still relative to the larger side, so a
    covariant route off by 10% fails the 1e-10 bound."""
    cfg = random_gauge_config(4, 3, np.random.default_rng(0), amplitude=1e-20)
    rep = reduce_yang_mills(cfg, metric4(1.0), background)
    assert _identity_rel(rep, rep["covariant_integral"], 1.0) == rep["covariant_identity_rel"]
    assert rep["covariant_identity_rel"] < 1e-10
    real = reduction.yang_mills_integral
    monkeypatch.setattr(reduction, "yang_mills_integral", lambda *args: 1.1 * real(*args))
    rep = reduce_yang_mills(cfg, metric4(1.0), background)
    assert rep["covariant_identity_rel"] == pytest.approx(0.1 / 1.1, rel=1e-6)
    assert not _routes_hold(rep)


@pytest.mark.parametrize("report", ["scalar", "born_infeld"])
def test_reports_transform_in_one_stacked_call_each(monkeypatch, seed0_fields, background, report):
    """The node data come from one gradients call and one synthesize call,
    and the Born-Infeld field strengths from one more synthesize call, not
    one call per field."""
    cfg, scal = seed0_fields
    calls = []
    for name in ("gradients", "synthesize"):
        _count_calls(monkeypatch, calls, name)
    if report == "scalar":
        reduce_scalar(cfg, scal, metric4(1.0), background)
        assert sorted(calls) == ["gradients", "synthesize"]
    else:
        born_infeld_report(cfg, metric4(1.0), background, 0.5, 1.0)
        assert sorted(calls) == ["gradients", "synthesize", "synthesize"]


def test_born_infeld_report_rejects_a_one_dimensional_spacetime(background):
    """One spacetime direction carries no field strength, so the report has
    no rhs to compare: a ValueError naming the dimension, not a traceback
    from an empty synthesis."""
    cfg = random_gauge_config(1, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="dimension 1"):
        born_infeld_report(cfg, BlockMetric(-np.eye(1), 1.0), background, 0.5, 1.0)


def _node_data_per_field(cfg, scal, grid):
    """The node arrays built one field at a time: the oracle of _node_data."""
    D = cfg.dim
    shape = (grid.n_theta, grid.n_phi)
    s = grid.sin_theta[:, None]
    dAex = np.zeros((2, D) + shape)
    for mu in range(D):
        dx, dp = cfg.a[mu].grad_values(grid)
        dAex[0, mu] = -s * dx
        dAex[1, mu] = dp
    dav = np.zeros((D, D) + shape)
    for nu in range(D):
        for mu in range(D):
            dav[nu, mu] = synthesize([cfg.da[nu][mu]], grid)[0]
    flow = dav - dav.swapaxes(0, 1)
    out = {"s": s, "dAex": dAex, "flow": flow, "shape": shape}
    if scal is not None:
        dphst = np.zeros((D,) + shape)
        for mu in range(D):
            dphst[mu] = synthesize([scal.dphi[mu]], grid)[0]
        px, pp = scal.phi.grad_values(grid)
        dphiex = np.zeros((2,) + shape)
        dphiex[0] = -s * px
        dphiex[1] = pp
        out["dphst"] = dphst
        out["dphiex"] = dphiex
    return out


@pytest.mark.parametrize("with_scalar", [False, True])
@pytest.mark.parametrize("dim", range(1, 7))
def test_node_data_equal_the_per_field_transforms(dim, with_scalar):
    """The stacked node data equal the per-field transforms bit for bit,
    dtype included, on a jet whose fields have band limits 0-4 mixed."""
    rng = np.random.default_rng(dim)

    def draw():
        return random_real_field(int(rng.integers(0, 5)), rng)

    cfg = GaugeConfig(dim, 1.0, [draw() for _ in range(dim)],
                      [[draw() for _ in range(dim)] for _ in range(dim)])
    scal = AdjointScalar(dim, draw(), [draw() for _ in range(dim)]) if with_scalar else None
    grid = reduction._grid_for(cfg, scal)[0]
    got, want = reduction._node_data(cfg, scal, grid), _node_data_per_field(cfg, scal, grid)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key
        assert np.asarray(got[key]).dtype == np.asarray(value).dtype, key
