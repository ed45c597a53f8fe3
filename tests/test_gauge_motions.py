"""The gauge motions and the covariant derivative against the per-pair
formulas they replace.

gauge_transform_config, gauge_transform_scalar and covariant_derivative take
every bracket they need from one `brackets` call. The oracles below make one
`bracket` call per pair, in the same order of field arithmetic, so the two
must agree bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from uinf import gauge_fields
from uinf.gauge_fields import (
    AdjointScalar,
    GaugeConfig,
    covariant_derivative,
    gauge_transform_config,
    gauge_transform_scalar,
    random_adjoint_scalar,
    random_gauge_config,
)
from uinf.sphere_algebra import HarmonicField, bracket, random_real_field


def per_pair_config(cfg, omega, domega, t):
    g = cfg.coupling
    a_new = [cfg.a[mu] + t * (domega[mu] + g * bracket(cfg.a[mu], omega))
             for mu in range(cfg.dim)]
    da_new = []
    for nu in range(cfg.dim):
        row = []
        for mu in range(cfg.dim):
            shift = g * (bracket(cfg.da[nu][mu], omega) + bracket(cfg.a[mu], domega[nu]))
            row.append(cfg.da[nu][mu] + t * shift)
        da_new.append(row)
    return GaugeConfig(cfg.dim, g, tuple(a_new), tuple(tuple(r) for r in da_new))


def per_pair_scalar(scal, omega, domega, t, coupling):
    g = coupling
    phi_new = scal.phi + t * g * bracket(scal.phi, omega)
    dphi_new = [scal.dphi[mu] + t * g * (bracket(scal.dphi[mu], omega)
                                         + bracket(scal.phi, domega[mu]))
                for mu in range(scal.dim)]
    return AdjointScalar(scal.dim, phi_new, tuple(dphi_new))


def per_pair_covariant_derivative(cfg, scal):
    return [scal.dphi[mu] + cfg.coupling * bracket(cfg.a[mu], scal.phi) for mu in range(cfg.dim)]


def _bits(fields):
    return [(f.l_max, f.coeffs.shape, f.coeffs.tobytes()) for f in fields]


def _draw(dim, l_max, omega_l_max, complex_omega, seed):
    rng = np.random.default_rng(seed)
    cfg = replace(random_gauge_config(dim, l_max, rng, amplitude=0.5), coupling=1.3)
    scal = random_adjoint_scalar(dim, l_max, rng, amplitude=0.5)
    omega = random_real_field(omega_l_max, rng, amplitude=0.7)
    if complex_omega:
        omega = omega + 0.5j * random_real_field(omega_l_max, rng, amplitude=0.7)
    domega = [random_real_field(l_max, rng, amplitude=0.7) for _ in range(dim)]
    return cfg, scal, omega, domega


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("l_max,omega_l_max,complex_omega", [
    (2, 2, False),  # criterion 04's draws: one grid, every product real
    (1, 3, False),  # omega and domega on different grids
    (2, 1, True),   # real and complex products on one grid
])
def test_gauge_motions_equal_the_per_pair_formula_bit_for_bit(dim, l_max, omega_l_max,
                                                              complex_omega):
    cfg, scal, omega, domega = _draw(dim, l_max, omega_l_max, complex_omega, 10 * dim + l_max)
    for t in (-0.7, 0.3, 0.0):
        got, want = gauge_transform_config(cfg, omega, domega, t), per_pair_config(
            cfg, omega, domega, t)
        assert (got.dim, got.coupling) == (want.dim, want.coupling)
        assert _bits(got.a) == _bits(want.a)
        assert _bits(sum(got.da, ())) == _bits(sum(want.da, ()))
        got, want = (gauge_transform_scalar(scal, omega, domega, t, 0.9),
                     per_pair_scalar(scal, omega, domega, t, 0.9))
        assert _bits((got.phi,) + got.dphi) == _bits((want.phi,) + want.dphi)


def _signed_zeros_outside(f, band):
    """f with -0.0 in every zero coefficient slot beyond l = band. Added to a
    padded bracket they give +0.0, but -0.0 if a negative scale multiplied
    the bracket after its padding."""
    c = f.coeffs.copy()
    c[band + 1:] = np.where(c[band + 1:] == 0, complex(-0.0, -0.0), c[band + 1:])
    return HarmonicField(f.l_max, c)


@pytest.mark.parametrize("coupling", [1.3, -1.3])
def test_motions_of_mixed_band_components_keep_the_per_pair_band_and_bytes(coupling):
    """Components of several band limits, and gauge-parameter derivatives
    finer than some brackets: each output keeps the per-pair band limit and
    bytes."""
    rng = np.random.default_rng(7)
    dim = 3
    a = [random_real_field(l, rng, amplitude=0.5) for l in (0, 1, 2)]
    da = [[random_real_field(l, rng, amplitude=0.5) for l in row]
          for row in ((1, 0, 2), (2, 2, 1), (0, 1, 1))]
    cfg = GaugeConfig(dim, coupling, a, da)
    omega = random_real_field(1, rng, amplitude=0.7)
    # {A_0, omega} has band 1, so d_0 omega at band 4 pads it
    domega = [_signed_zeros_outside(random_real_field(l, rng, amplitude=0.7), 1)
              for l in (4, 1, 2)]
    dphi = [_signed_zeros_outside(random_real_field(l, rng, amplitude=0.5), 2)
            for l in (0, 5, 2)]
    scal = AdjointScalar(dim, random_real_field(1, rng, amplitude=0.5), dphi)
    for t in (-0.7, 0.3):
        got, want = gauge_transform_config(cfg, omega, domega, t), per_pair_config(
            cfg, omega, domega, t)
        assert [f.l_max for f in got.a] == [4, 2, 3]
        assert _bits(got.a) == _bits(want.a)
        assert _bits(sum(got.da, ())) == _bits(sum(want.da, ()))
        got, want = (gauge_transform_scalar(scal, omega, domega, t, coupling),
                     per_pair_scalar(scal, omega, domega, t, coupling))
        assert _bits((got.phi,) + got.dphi) == _bits((want.phi,) + want.dphi)
    # {A_mu, phi} has band 1 to 3, so the band-5 d_1 phi pads D_1 phi's bracket
    got = covariant_derivative(cfg, scal)
    assert [f.l_max for f in got] == [1, 5, 3]
    assert _bits(got) == _bits(per_pair_covariant_derivative(cfg, scal))


def _no_field_arithmetic(monkeypatch):
    """Make HarmonicField's operators raise: the motions and the covariant
    derivative do their arithmetic on coefficient stacks."""
    def raising(*args):
        raise AssertionError("field arithmetic called")

    for name in ("__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(HarmonicField, name, raising)


@pytest.mark.parametrize("dim", [2, 4])
def test_each_gauge_motion_makes_one_brackets_call_and_no_bracket_call(monkeypatch, dim):
    calls = []
    stacked = gauge_fields.brackets

    def no_bracket(f, g):
        raise AssertionError("a gauge motion called bracket")

    monkeypatch.setattr(gauge_fields, "bracket", no_bracket)
    monkeypatch.setattr(gauge_fields, "brackets",
                        lambda pairs: calls.append(len(pairs)) or stacked(pairs))
    cfg, scal, omega, domega = _draw(dim, 2, 2, False, dim)
    _no_field_arithmetic(monkeypatch)
    gauge_transform_config(cfg, omega, domega, 0.5)
    assert calls == [dim * (2 * dim + 1)]
    gauge_transform_scalar(scal, omega, domega, 0.5, cfg.coupling)
    assert calls == [dim * (2 * dim + 1), 2 * dim + 1]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("phi_l_max,complex_phi", [
    (2, False),  # every bracket on the potentials' grid, every product real
    (3, False),  # phi on a finer band than the potentials
    (1, True),   # complex products
])
def test_covariant_derivative_is_one_brackets_call_equal_to_the_per_pair_formula(
        monkeypatch, dim, phi_l_max, complex_phi):
    cfg, scal, _, _ = _draw(dim, 2, 2, False, 10 * dim + phi_l_max)
    rng = np.random.default_rng(dim)
    phi = random_real_field(phi_l_max, rng, amplitude=0.7)
    if complex_phi:
        phi = phi + 0.5j * random_real_field(phi_l_max, rng, amplitude=0.7)
    scal = replace(scal, phi=phi)
    want = per_pair_covariant_derivative(cfg, scal)
    calls = []
    stacked = gauge_fields.brackets

    def no_bracket(f, g):
        raise AssertionError("covariant_derivative called bracket")

    monkeypatch.setattr(gauge_fields, "bracket", no_bracket)
    monkeypatch.setattr(gauge_fields, "brackets",
                        lambda pairs: calls.append(len(pairs)) or stacked(pairs))
    _no_field_arithmetic(monkeypatch)
    got = covariant_derivative(cfg, scal)
    assert calls == [dim]
    assert isinstance(got, tuple) and _bits(got) == _bits(want)
