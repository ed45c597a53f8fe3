from dataclasses import replace

import numpy as np
import pytest

from uinf import reduction
from uinf.gauge_fields import (
    AdjointScalar,
    GaugeConfig,
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
from uinf.sphere_algebra import HarmonicField, random_real_field
from conftest import lorentz

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
    zero = HarmonicField.zero(L)
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
        rep = born_infeld_report(cfg, BlockMetric(lorentz(4), b), background, alpha=0.5)
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
        born_infeld_report(cfg, metric, background, alpha=alpha)["suppression_ratio"]
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
        born_infeld_report(cfg, metric, background, alpha=alpha)["kk_residual"]
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
