from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uinf import gauge_fields, reduction, sphere_algebra
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
from uinf.sphere_algebra import brackets, random_real_field, synthesize
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
    1.0: [-0.5813614633039714, -0.03578010074760468, 0.41989141299121113,
          1.398377581858421e-17],
    0.05: [-0.5813614633039714, -14.31204029904187, 67182.62607859376,
           8.949616523893891e-10],
}
YM_GROUPS_EXACT = {
    1.0: [-2.4390898406725747, -3.525661582219011, -0.05050907243435283,
          -1.3798143170766413e-16, 0.0],
    0.05: [-2.4390898406725747, -1410.2646328876042, -8081.451589496451,
           -8.830811629290501e-09, 0.0],
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


def test_b_scan_needs_two_distinct_radii(seed0_fields, background):
    """A repeated radius gives the exponent fit no spread in log b: a
    ValueError, not a failed least-squares solve."""
    cfg, scal = seed0_fields
    with pytest.raises(ValueError, match="two distinct radii"):
        b_scan(cfg, scal, lorentz(4), background, [1.0, 1.0])


def test_b_scan_needs_a_scalar_jet(seed0_fields, background):
    cfg, _ = seed0_fields
    with pytest.raises(ValueError, match="needs a scalar jet"):
        b_scan(cfg, None, lorentz(4), background, [0.4, 0.2])


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
    reps = born_infeld_report(cfg, lorentz(4), background, 0.5, 1.0, [0.4, 0.2, 0.1, 0.05])
    drifts = [rep["drift"] for rep in reps]
    rhs_vals = [rep["rhs"] for rep in reps]
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
    ratios = [
        born_infeld_report(cfg, lorentz(4), background, alpha, 1.0, [0.1])[0]["suppression_ratio"]
        for alpha in (0.8, 0.4, 0.2, 0.1, 0.05)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(0.9892824147253547, rel=1e-10)


def test_born_infeld_quadratic_remainder(background):
    """The gap to the flux-subtracted quadratic model scales like alpha^2."""
    rng = np.random.default_rng(2)
    cfg = random_gauge_config(4, 2, rng, amplitude=0.25)
    resid = [
        born_infeld_report(cfg, lorentz(4), background, alpha, 1.0, [0.5])[0]["kk_residual"]
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
                unit = float(np.sum(grid.w2d * np.abs(groups[k][j])))  # at unit radius
                shares.append(unit * b ** (-2 * k) / total_mag)
                groups[k][j] = groups[k][j] * (1.0 + 1e-6)
                return groups

            monkeypatch.setattr(reduction, name, mutated)
            rep = _reduce(sector, cfg, scal, metric4(b), background)
            missed = MISSED_AT_B005.get((sector, k, j)) if b == 0.05 else None
            if missed is None:
                assert not _routes_hold(rep), (k, j)
            else:
                assert shares[0] == pytest.approx(missed, rel=0.01)


SCAN_RADII = (0.4, 0.2, 0.1, 0.05)


@pytest.mark.parametrize("dim, seed", [(4, 0), (2, 1), (3, 2), (4, 3)])
def test_b_scan_rows_equal_the_reports_at_their_radii(background, dim, seed):
    """A scan shares the radius-free data across its radii, and each row is
    still the reduce_scalar report at its radius, bit for bit."""
    rng = np.random.default_rng(seed)
    cfg = random_gauge_config(dim, 3, rng, amplitude=0.4)
    scal = random_adjoint_scalar(dim, 3, rng, amplitude=0.4)
    scan = b_scan(cfg, scal, lorentz(dim), background, SCAN_RADII)
    for row, b in zip(scan["rows"], SCAN_RADII):
        rep = reduce_scalar(cfg, scal, BlockMetric(lorentz(dim), b), background)
        gk = rep["group_integrals"]
        assert row["b"] == b and row["q"] == rep["q_scaled"]
        assert [row["covariant_group"], row["residual_group_1"], row["residual_group_0"]] == gk[2::-1]
        assert row["ratio"] == (abs(gk[1]) + abs(gk[0])) / abs(gk[2])
        for name in ROUTE_RESIDUALS + ("vanishing_group_rel",):
            assert row[name] == rep[name], name


def test_b_scan_computes_the_radius_free_data_once(monkeypatch, seed0_fields, background):
    """The node data, the covariant integral and the unit-radius group
    densities do not depend on the radius: a four-radius scan makes each
    once, not once per radius."""
    cfg, scal = seed0_fields
    calls = []
    for name in ("_node_data", "scalar_kinetic_integral", "_scalar_groups"):
        _count_calls(monkeypatch, calls, name)
    b_scan(cfg, scal, lorentz(4), background, SCAN_RADII)
    assert sorted(calls) == ["_node_data", "_scalar_groups", "scalar_kinetic_integral"]


def test_born_infeld_report_computes_the_radius_free_data_once(monkeypatch, background):
    """A four-radius report builds the node data, the field matrix and the
    unit-radius block invariants once, the rhs pair of densities once and
    lhs's pair per radius; each row is still the one-radius report at its
    radius, bit for bit."""
    cfg = random_gauge_config(4, 2, np.random.default_rng(2), amplitude=0.25)
    alone = [born_infeld_report(cfg, lorentz(4), background, 0.5, 1.0, [b])[0] for b in SCAN_RADII]
    names = ("_node_data", "_full_field_matrix", "_block_invariants", "born_infeld_density")
    calls = []
    for name in names:
        _count_calls(monkeypatch, calls, name)
    rows = born_infeld_report(cfg, lorentz(4), background, 0.5, 1.0, SCAN_RADII)
    assert [calls.count(name) for name in names] == [1, 1, 1, 2 + 2 * len(SCAN_RADII)]
    assert rows == alone


@pytest.mark.parametrize("spacetime, rel", [
    (lorentz(2), 0.0), (np.array([[-1.0, 0.3], [0.3, 1.2]]), 1e-15)])
def test_two_dim_reads_the_component_integral_off_the_covariant_route(monkeypatch, background,
                                                                      spacetime, rel):
    """two_dim_report builds F_01 once, inside the covariant route, and reads
    the integral of its square off that route's integral: the coefficient-route
    oracle bit for bit at Minkowski, to 1e-15 at a non-diagonal metric."""
    cfg = random_gauge_config(2, 3, np.random.default_rng(0), amplitude=0.4)
    ft01 = gauge_fields.field_strength(replace(cfg, coupling=background.q), 0, 1)
    want = sphere_algebra.integral_of_product(ft01, ft01).real
    real, calls = gauge_fields.field_strength, []
    monkeypatch.setattr(gauge_fields, "field_strength",
                        lambda *args: calls.append(args) or real(*args))
    got = two_dim_report(cfg, BlockMetric(spacetime, 1.0), background)["covariant_component_integral"]
    assert len(calls) == 1
    assert type(got) is float and abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("sector, kernel", [("scalar", "delta3"), ("yang_mills", "trace4")])
@pytest.mark.parametrize("b", [1.0, 0.05])
def test_reference_scales_come_from_one_kernel_call(monkeypatch, seed0_fields, background,
                                                    sector, kernel, b):
    """The reference route evaluates its five sphere-block scales in one
    stacked kernel call, and each scale's integral equals that of a call at
    that scale alone to 1e-15 of the magnitude the forward scan divides by."""
    cfg, scal = seed0_fields
    real = getattr(reduction, kernel)
    outputs = []

    def recorded(*args):
        outputs.append(real(*args))
        return outputs[-1]

    monkeypatch.setattr(reduction, kernel, recorded)
    metric = metric4(b)
    rep = _reduce(sector, cfg, scal, metric, background)
    assert len(outputs) == 1 and outputs[0].shape[0] == 5
    grid, _ = reduction._grid_for(cfg, scal if sector == "scalar" else None)
    nd = reduction._node_data(cfg, scal if sector == "scalar" else None, grid)
    F = reduction._full_field_matrix(nd, 4, background.q)
    ginv = np.linalg.inv(metric.spacetime)
    for t, stacked in enumerate(outputs[0]):
        G = reduction._full_inverse_metric(grid, ginv, b, float(t))
        if sector == "scalar":
            v = np.concatenate([nd["dphst"], nd["dphiex"]]).transpose(1, 2, 0)
            alone = real(F, v, G)
        else:
            alone = real(F, G)
        assert stacked.shape == alone.shape
        magnitude = sum(m * t**k for k, m in enumerate(rep["group_magnitudes"]))
        diff = abs(reduction._integrate(grid, stacked) - reduction._integrate(grid, alone))
        assert diff <= 1e-15 * magnitude
        if t == 1:
            scale = 0.5 if sector == "scalar" else 1.0
            assert rep["reference_total"] == reduction._integrate(grid, scale * stacked)


@pytest.mark.parametrize("sector", ["scalar", "yang_mills"])
@pytest.mark.parametrize("b", [0.5, 0.1, 0.05])
def test_reference_route_reads_the_radius_as_a_sphere_block_scale(seed0_fields, background,
                                                                  sector, b):
    """The reference route keeps its own radius arithmetic: its integrals at
    radius b and sphere-block scales t = 0..4 equal those at radius 1 and
    scales t / b^2, to 1e-15 of the magnitude the forward scan divides by.
    The groups scale their unit-radius densities by b^(-2k), so this is the
    check on b that does not hold by construction."""
    cfg, scal = seed0_fields
    scal = scal if sector == "scalar" else None
    grid, _ = reduction._grid_for(cfg, scal)
    nd = reduction._node_data(cfg, scal, grid)
    F = reduction._full_field_matrix(nd, 4, background.q)
    ginv = np.linalg.inv(lorentz(4))
    v = None if scal is None else np.concatenate([nd["dphst"], nd["dphiex"]]).transpose(1, 2, 0)

    def reference(radius, scales):
        G = reduction._full_inverse_metric(grid, ginv, radius, scales)
        densities = reduction.trace4(F, G) if v is None else 0.5 * reduction.delta3(F, v, G)
        return [reduction._integrate(grid, d) for d in densities]

    mags = _reduce(sector, cfg, scal, metric4(b), background)["group_magnitudes"]
    t = np.arange(5.0)
    for tk, at_b, at_1 in zip(t, reference(b, t), reference(1.0, t / b**2)):
        assert abs(at_b - at_1) <= 1e-15 * sum(m * tk**k for k, m in enumerate(mags))


def _ym_groups_literal_nn(nd, grid, ginv, q):
    """_ym_groups with its C1 term built from the literal five-factor
    contraction g^-1 F g^-1 F g^-1: the oracle of the ordered product."""
    groups = reduction._ym_groups(nd, grid, ginv, q)
    P = reduction._block_invariants(nd, grid, ginv)[3]
    flow = nd["flow"]
    NN = np.einsum("ab,bcij,cd,deij,ef->afij", ginv, flow, ginv, flow, ginv)
    groups[1][1] = -8.0 * -np.einsum("abij,abij->ij", P, NN)
    return groups


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ym_groups_equal_the_literal_five_factor_contraction(background, dim):
    """NN = (g^-1 F)^2 g^-1 read off M2 equals the literal five-operand
    contraction to 1e-14 of its largest node value, term for term."""
    rng = np.random.default_rng(10 + dim)
    cfg = random_gauge_config(dim, 3, rng, amplitude=0.4)
    grid, _ = reduction._grid_for(cfg, None)
    nd = reduction._node_data(cfg, None, grid)
    ginv = np.linalg.inv(lorentz(dim))
    got = reduction._ym_groups(nd, grid, ginv, background.q)
    want = _ym_groups_literal_nn(nd, grid, ginv, background.q)
    for got_terms, want_terms in zip(got, want):
        for g, w in zip(got_terms, want_terms):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


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
    not one call per field, and the Born-Infeld field strengths from the
    same node data."""
    cfg, scal = seed0_fields
    calls = []
    for name in ("gradients", "synthesize"):
        _count_calls(monkeypatch, calls, name)
    if report == "scalar":
        reduce_scalar(cfg, scal, metric4(1.0), background)
        assert sorted(calls) == ["gradients", "synthesize"]
    else:
        born_infeld_report(cfg, lorentz(4), background, 0.5, 1.0, [1.0])
        assert sorted(calls) == ["gradients", "synthesize"]


def test_born_infeld_report_builds_no_coefficient_bracket(monkeypatch, seed0_fields, background):
    """The reduced field strength F + q{A, A} is read off the node bracket
    table: no coefficient-space field strength, bracket or brackets call."""
    def forbidden(*args):
        raise AssertionError("born_infeld_report built a coefficient-space bracket")

    monkeypatch.setattr(gauge_fields, "field_strength", forbidden)
    for name in ("bracket", "brackets"):
        monkeypatch.setattr(sphere_algebra, name, forbidden)
    (rep,) = born_infeld_report(seed0_fields[0], lorentz(4), background, 0.5, 1.0, [1.0])
    assert np.isfinite(rep["rhs"]) and rep["rhs"] != rep["rhs_without_bracket"]


def test_born_infeld_report_rejects_a_one_dimensional_spacetime(background):
    """One spacetime direction carries no field strength, so the report has
    no rhs to compare: a ValueError naming the dimension, not a traceback
    from an empty synthesis."""
    cfg = random_gauge_config(1, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="dimension 1"):
        born_infeld_report(cfg, -np.eye(1), background, 0.5, 1.0, [1.0])


def _node_data_per_field(cfg, scal, grid):
    """The node arrays built one field at a time: the oracle of _node_data."""
    D = cfg.dim
    shape = (grid.n_theta, grid.n_phi)
    s = grid.sin_theta[:, None]
    fields = list(cfg.a) + ([] if scal is None else [scal.phi])
    ex = np.zeros((2, len(fields)) + shape)  # d_theta and d_phi of each field
    for i, f in enumerate(fields):
        dx, dp = f.grad_values(grid)
        ex[0, i] = -s * dx
        ex[1, i] = dp
    bracket = np.zeros((len(fields),) * 2 + shape)
    for i in range(len(fields)):
        for j in range(len(fields)):
            bracket[i, j] = (ex[1, i] * ex[0, j] - ex[0, i] * ex[1, j]) / s
    dAex = ex[:, :D]
    dav = np.zeros((D, D) + shape)
    for nu in range(D):
        for mu in range(D):
            dav[nu, mu] = synthesize([cfg.da[nu][mu]], grid)[0]
    flow = dav - dav.swapaxes(0, 1)
    out = {"s": s, "dAex": dAex, "flow": flow, "shape": shape, "bracket": bracket}
    if scal is not None:
        dphst = np.zeros((D,) + shape)
        for mu in range(D):
            dphst[mu] = synthesize([scal.dphi[mu]], grid)[0]
        out["dphst"] = dphst
        out["dphiex"] = ex[:, D]
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


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=5), with_scalar=st.booleans(),
       bands=st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_node_bracket_table_equals_the_coefficient_bracket_property(dim, with_scalar, bands, seed):
    """The node table is exactly antisymmetric with an exactly zero diagonal,
    and each entry equals the synthesized coefficient bracket {f_i, f_j} on
    the same grid to 1e-13 of the table's largest entry: the node and the
    coefficient routes of {A, A} stay tied."""
    rng = np.random.default_rng(seed)
    fields = [random_real_field(l, rng) for l in bands[:dim + with_scalar]]
    zero = zero_field(0)
    cfg = GaugeConfig(dim, 1.0, fields[:dim], [[zero] * dim for _ in range(dim)])
    scal = AdjointScalar(dim, fields[dim], [zero] * dim) if with_scalar else None
    grid = reduction._grid_for(cfg, scal)[0]
    table = reduction._node_data(cfg, scal, grid)["bracket"]
    assert np.array_equal(table, -table.swapaxes(0, 1))
    assert not np.any(table[np.arange(len(fields)), np.arange(len(fields))])
    pairs = [(i, j) for i in range(len(fields)) for j in range(len(fields))]
    want = synthesize(brackets([(fields[i], fields[j]) for i, j in pairs]), grid)
    scale = np.abs(table).max()
    for (i, j), w in zip(pairs, want):
        assert np.abs(table[i, j] - w).max() <= 1e-13 * scale, (i, j)
