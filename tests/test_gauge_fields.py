from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uinf.gauge_fields import (
    AdjointScalar,
    GaugeConfig,
    covariant_derivative,
    field_strength,
    gauge_transform_config,
    gauge_transform_scalar,
    random_adjoint_scalar,
    random_gauge_config,
    scalar_kinetic_integral,
    yang_mills_integral,
)
from uinf.sphere_algebra import (
    bracket,
    grid_for_band_limit,
    random_real_field,
    synthesize,
)
from conftest import lorentz, zero_field


def exact_first_derivative(vals, h):
    # five point stencil, exact for polynomials up to degree five
    m2, m1, p1, p2 = vals
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def draw_everything(dim, l_max, rng, amplitude=0.5):
    cfg = random_gauge_config(dim, l_max, rng, amplitude=amplitude)
    scal = random_adjoint_scalar(dim, l_max, rng, amplitude=amplitude)
    omega = random_real_field(l_max, rng, amplitude=0.7)
    domega = [random_real_field(l_max, rng, amplitude=0.7) for _ in range(dim)]
    return cfg, scal, omega, domega


def test_config_validation():
    zero = zero_field(2)
    with pytest.raises(ValueError):
        GaugeConfig(3, 1.0, (zero,), ((zero,) * 3,) * 3)
    with pytest.raises(ValueError):
        GaugeConfig(3, 1.0, (zero,) * 3, ((zero,) * 2,) * 3)


def test_field_strength_antisymmetry():
    rng = np.random.default_rng(0)
    cfg = random_gauge_config(3, 2, rng)
    for mu in range(3):
        for nu in range(3):
            fmn = field_strength(cfg, mu, nu)
            fnm = field_strength(cfg, nu, mu)
            L = max(fmn.l_max, fnm.l_max)
            total = fmn.pad_to(L).coeffs + fnm.pad_to(L).coeffs
            assert np.max(np.abs(total)) < 1e-14


def test_field_strength_abelian_limit():
    rng = np.random.default_rng(1)
    cfg = replace(random_gauge_config(3, 2, rng), coupling=0.0)
    f = field_strength(cfg, 0, 2)
    lin = cfg.da[0][2] - cfg.da[2][0]
    np.testing.assert_array_equal(f.coeffs, lin.pad_to(f.l_max).coeffs)


def test_transform_at_zero_is_identity():
    rng = np.random.default_rng(2)
    cfg, scal, omega, domega = draw_everything(3, 2, rng)
    cfg0 = gauge_transform_config(cfg, omega, domega, 0.0)
    scal0 = gauge_transform_scalar(scal, omega, domega, 0.0, cfg.coupling)
    for mu in range(3):
        expect = cfg.a[mu].pad_to(cfg0.a[mu].l_max)
        np.testing.assert_array_equal(cfg0.a[mu].coeffs, expect.coeffs)
    expect = scal.phi.pad_to(scal0.phi.l_max)
    np.testing.assert_array_equal(scal0.phi.coeffs, expect.coeffs)


def test_field_strength_transforms_by_bracket():
    """The transformed field strength equals F + t g {F, w} + t^2 g {s_mu, s_nu}
    with s the potential shift, as an exact polynomial identity in t."""
    rng = np.random.default_rng(3)
    cfg, _, omega, domega = draw_everything(3, 2, rng)
    g = cfg.coupling
    t = 0.7
    cfg_t = gauge_transform_config(cfg, omega, domega, t)
    shifts = [domega[mu] + g * bracket(cfg.a[mu], omega) for mu in range(3)]
    for mu in range(3):
        for nu in range(mu + 1, 3):
            lhs = field_strength(cfg_t, mu, nu)
            f0 = field_strength(cfg, mu, nu)
            rhs = (
                f0
                + (t * g) * bracket(f0, omega)
                + (t * t * g) * bracket(shifts[mu], shifts[nu])
            )
            L = max(lhs.l_max, rhs.l_max)
            diff = lhs.pad_to(L).coeffs - rhs.pad_to(L).coeffs
            scale = max(np.max(np.abs(lhs.coeffs)), 1.0)
            assert np.max(np.abs(diff)) < 1e-13 * scale


def test_covariant_derivative_transforms_by_bracket():
    rng = np.random.default_rng(4)
    cfg, scal, omega, domega = draw_everything(3, 2, rng)
    g = cfg.coupling
    t = 0.6
    cfg_t = gauge_transform_config(cfg, omega, domega, t)
    scal_t = gauge_transform_scalar(scal, omega, domega, t, g)
    for mu in range(3):
        lhs = covariant_derivative(cfg_t, scal_t)[mu]
        d0 = covariant_derivative(cfg, scal)[mu]
        shift = domega[mu] + g * bracket(cfg.a[mu], omega)
        rhs = (
            d0
            + (t * g) * bracket(d0, omega)
            + (t * t * g * g) * bracket(shift, bracket(scal.phi, omega))
        )
        L = max(lhs.l_max, rhs.l_max)
        diff = lhs.pad_to(L).coeffs - rhs.pad_to(L).coeffs
        scale = max(np.max(np.abs(lhs.coeffs)), 1.0)
        assert np.max(np.abs(diff)) < 1e-13 * scale


def test_action_first_variation_vanishes():
    """Both integrals are degree four polynomials in the transform parameter,
    so the five point derivative at zero is exact up to rounding."""
    h = 0.5
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        metric = lorentz(dim)
        cfg, scal, omega, domega = draw_everything(dim, 2, rng)
        i_ym = yang_mills_integral(cfg, metric)
        i_kin = scalar_kinetic_integral(cfg, scal, metric)
        ym_vals, kin_vals = [], []
        for t in (-2 * h, -h, h, 2 * h):
            cfg_t = gauge_transform_config(cfg, omega, domega, t)
            scal_t = gauge_transform_scalar(scal, omega, domega, t, cfg.coupling)
            ym_vals.append(yang_mills_integral(cfg_t, metric))
            kin_vals.append(scalar_kinetic_integral(cfg_t, scal_t, metric))
        assert abs(exact_first_derivative(ym_vals, h)) < 1e-11 * max(abs(i_ym), 1.0)
        assert abs(exact_first_derivative(kin_vals, h)) < 1e-11 * max(abs(i_kin), 1.0)


# max_examples bounds run time: an example takes about 10 ms at dim 4, l_max 3
@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), l_max=st.integers(1, 3),
       amplitude=st.floats(0.05, 1.0), coupling=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_action_first_variation_vanishes_property(dim, l_max, amplitude, coupling, seed):
    """Criterion 04's four-point difference over drawn shapes, amplitudes and
    couplings: a gauge motion leaves both actions unchanged to first order."""
    h = 0.5
    rng = np.random.default_rng(seed)
    cfg, scal, omega, domega = draw_everything(dim, l_max, rng, amplitude)
    cfg = replace(cfg, coupling=coupling)
    metric = lorentz(dim)
    ym_vals, kin_vals = [], []
    for t in (-2 * h, -h, h, 2 * h):
        cfg_t = gauge_transform_config(cfg, omega, domega, t)
        scal_t = gauge_transform_scalar(scal, omega, domega, t, coupling)
        ym_vals.append(yang_mills_integral(cfg_t, metric))
        kin_vals.append(scalar_kinetic_integral(cfg_t, scal_t, metric))
    scale_ym = max(abs(yang_mills_integral(cfg, metric)), 1.0)
    scale_kin = max(abs(scalar_kinetic_integral(cfg, scal, metric)), 1.0)
    assert abs(exact_first_derivative(ym_vals, h)) / scale_ym < 1e-10
    assert abs(exact_first_derivative(kin_vals, h)) / scale_kin < 1e-10


def test_yang_mills_integral_against_brute_force():
    rng = np.random.default_rng(6)
    dim = 3
    cfg = random_gauge_config(dim, 2, rng, amplitude=0.5)
    metric = lorentz(dim)
    ginv = np.linalg.inv(metric)
    grid = grid_for_band_limit(8)
    vals = {}
    for mu in range(dim):
        for nu in range(dim):
            vals[mu, nu] = synthesize([field_strength(cfg, mu, nu)], grid)[0]
    brute = 0.0
    for mu in range(dim):
        for nu in range(dim):
            for rho in range(dim):
                for sig in range(dim):
                    w = ginv[mu, rho] * ginv[nu, sig]
                    if w == 0.0:
                        continue
                    brute += w * np.sum(vals[mu, nu] * vals[rho, sig] * grid.w2d).real
    assert yang_mills_integral(cfg, metric) == pytest.approx(brute, rel=1e-12)


def test_scalar_kinetic_integral_against_brute_force():
    rng = np.random.default_rng(7)
    dim = 3
    cfg = random_gauge_config(dim, 2, rng, amplitude=0.5)
    scal = random_adjoint_scalar(dim, 2, rng, amplitude=0.5)
    metric = lorentz(dim)
    ginv = np.linalg.inv(metric)
    grid = grid_for_band_limit(8)
    dvals = [synthesize([covariant_derivative(cfg, scal)[mu]], grid)[0] for mu in range(dim)]
    brute = 0.0
    for mu in range(dim):
        for nu in range(dim):
            if ginv[mu, nu] == 0.0:
                continue
            brute += ginv[mu, nu] * np.sum(dvals[mu] * dvals[nu] * grid.w2d).real
    assert scalar_kinetic_integral(cfg, scal, metric) == pytest.approx(brute, rel=1e-12)


def test_default_metric_is_minkowski():
    rng = np.random.default_rng(8)
    cfg = random_gauge_config(4, 2, rng)
    assert yang_mills_integral(cfg) == pytest.approx(
        yang_mills_integral(cfg, lorentz(4)), rel=1e-15
    )


def test_adjoint_scalar_validation():
    zero = zero_field(2)
    with pytest.raises(ValueError):
        AdjointScalar(3, zero, (zero, zero))
