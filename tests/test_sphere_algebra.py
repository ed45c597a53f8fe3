from functools import lru_cache
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import sph_harm_y

from uinf import sphere_algebra
from uinf.sphere_algebra import (
    HarmonicField,
    analyze,
    bracket,
    brackets,
    gradients,
    grid_for_band_limit,
    integral_of_product,
    lm_pairs,
    product,
    random_real_field,
    structure_constants,
    su2_generators,
    synthesize,
)
from conftest import coefficient

C_DIPOLE = 0.4886025119029199  # sqrt(3 / 4 pi)


def _nodes(grid):
    """(theta, phi) of every grid node, shaped like the grid values."""
    return np.meshgrid(np.arccos(grid.x), grid.phi, indexing="ij")


def test_harmonic_matches_scipy_reference():
    """Every synthesized basis harmonic up to l = 11 agrees with the scipy
    spherical harmonics at the grid nodes."""
    grid = grid_for_band_limit(11)
    theta, phi = _nodes(grid)
    worst = 0.0
    for l in range(12):
        for m in range(-l, l + 1):
            mine = synthesize([HarmonicField.basis(l, m)], grid)[0]
            worst = max(worst, np.max(np.abs(mine - sph_harm_y(l, m, theta, phi))))
    assert worst < 1e-12


def _legendre_loop(l_max, x):
    """The Legendre tables by the element-wise loop over (l, m): P, the oracle for the
    arithmetic of the vectorized _legendre_table, and dP/dx per entry from P, the dense
    reference for the x-derivatives."""
    n = x.size
    P = np.zeros((l_max + 1, l_max + 1, n))
    sin_theta = np.sqrt(1.0 - x * x)
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        P[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * P[m - 1, m - 1]
    for m in range(0, l_max):
        P[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * P[m, m]
    for m in range(0, l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[l, m] = a * (x * P[l - 1, m] - b * P[l - 2, m])
    dPdx = np.zeros_like(P)
    denom = x * x - 1.0
    for m in range(0, l_max + 1):
        for l in range(max(m, 1), l_max + 1):
            c = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0))
            upper = l * x * P[l, m]
            if l - 1 >= m:
                upper = upper - c * P[l - 1, m]
            dPdx[l, m] = upper / denom
    return P, dPdx


def _layout(B):
    """(l, m, pair, position) of every entry of a Legendre table packed at band B: order
    m <= B // 2 in pair m from position 0 up, order m > B // 2 in pair B - m after the
    B - m + 1 degrees of its partner, degree l at position l + 1."""
    for m in range(B + 1):
        for l in range(m, B + 1):
            yield (l, m, m, l - m) if m <= B // 2 else (l, m, B - m, l + 1)


def _packed(table):
    """A full (l, m, node) table of band B packed by _layout, zero where it places nothing."""
    B = len(table) - 1
    out = np.zeros((B // 2 + 1, B + 2, table.shape[2]))
    for l, m, pair, position in _layout(B):
        out[pair, position] = table[l, m]
    return out


def _unpacked(packed):
    """The full (l, m, node) table of a packed one, zero for m > l."""
    B = packed.shape[1] - 2
    out = np.zeros((B + 1, B + 1, packed.shape[2]))
    for l, m, pair, position in _layout(B):
        out[l, m] = packed[pair, position]
    return out


def _table_bytes(B, n_theta):
    """Bytes of a table packed at band B on the (n_theta + 1) // 2 nodes x >= 0 of a grid."""
    return 8 * (B // 2 + 1) * (B + 2) * ((n_theta + 1) // 2)


def test_legendre_tables_equal_the_elementwise_loop():
    """A grid's P, to one degree past the grid's band and vectorized over the orders, equals
    the loop packed on the nodes x >= 0, every entry bit for bit, on every grid up to band
    limit 70: the same operations per element, in the same order."""
    for band_limit in range(71):
        grid = grid_for_band_limit(band_limit)
        P = _legendre_loop(band_limit + 1, grid.x)[0]
        north = grid.n_theta // 2
        assert grid.P.shape == ((band_limit + 1) // 2 + 1, band_limit + 3, band_limit // 2 + 1)
        assert np.array_equal(grid.P, _packed(P)[..., north:]), band_limit


def _grid_table(B):
    """The nodes of the band-B grid (numpy's leggauss, as grid_for_band_limit takes them),
    and P packed at band B + 1, as the grid packs it, on every one of them."""
    x = leggauss(B + 1)[0]
    return x, sphere_algebra._legendre_table(B + 1, x)


def _reflections(B):
    """(-1)^(l+m) of each (pair, position) of a table packed at band B, 0 where it places
    nothing."""
    out = np.zeros((B // 2 + 1, B + 2, 1))
    for l, m, pair, position in _layout(B):
        out[pair, position] = (-1.0) ** (l + m)
    return out


@pytest.mark.parametrize("B", [*range(71), 128, 300])
def test_nodes_and_legendre_tables_mirror_exactly(B):
    """The grid's nodes mirror, x == -x[::-1], with the equator node exactly 0.0 at even
    band, and P at -x is (-1)^(l+m) times P at x, every entry bit for bit. A grid keeps its
    table on the nodes x >= 0 on this ground."""
    x, P = _grid_table(B)
    assert np.array_equal(x, -x[::-1])
    assert B % 2 or x[B // 2] == 0.0
    for pair, pair_sign in zip(P, _reflections(B + 1)):  # a pair at a time, for band 300
        assert np.array_equal(pair[:, ::-1], pair_sign * pair)


def test_a_grid_is_built_packed():
    """Building a band-64 grid allocates at its peak the grid's other arrays and at most
    1.15 times its packed table's bytes on the nodes x >= 0; with the table on every node,
    or unpacked, the table alone is more than 1.2 times."""
    build = sphere_algebra.grid_for_band_limit.__wrapped__
    build(64)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        grid = build(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.P.nbytes == _table_bytes(65, 65)
    others = sum(a.nbytes for a in (grid.x, grid.w, grid.phi, grid.sin_theta, grid.w2d, grid.trig))
    assert peak <= others + 1.15 * grid.P.nbytes


def _dense_reference(f, grid):
    """(values, df/dx, df/dphi) of f on the grid, and the analysis of given values, as
    einsums over the loop's full tables: one term per (l, m), no packing."""
    L = f.l_max
    P, dPdx = _legendre_loop(L, grid.x)
    m = np.arange(-L, L + 1)
    sign = np.where(m < 0, (-1.0) ** m, 1.0)[:, None]  # Y_l,-m = (-1)^m conj Y_lm
    signed = [sign * t[:, abs(m)] for t in (P, dPdx)]
    E = np.exp(1j * np.outer(m, grid.phi))
    values, dx = (np.einsum("lj,ljt,jp->tp", f.coeffs, t, E, optimize=True) for t in signed)
    dphi = np.einsum("lj,ljt,jp->tp", f.coeffs * (1j * m), signed[0], E, optimize=True)

    def analysis(v):
        return np.einsum("tp,ljt,jp->lj", grid.w2d * v, signed[0], E.conj())

    return values, dx, dphi, analysis


def _rel_to(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(B=st.integers(3, 40), shape=st.sampled_from(["half", "between", "full"]),
       where=st.floats(0.0, 1.0), cplx=st.booleans(), seed=st.integers(0, 2**31 - 1))
@example(B=40, shape="half", where=1.0, cplx=False, seed=0)
@example(B=40, shape="between", where=0.0, cplx=True, seed=1)
@example(B=39, shape="between", where=1.0, cplx=False, seed=2)
@example(B=40, shape="full", where=0.0, cplx=True, seed=3)
@example(B=3, shape="full", where=0.0, cplx=False, seed=4)
def test_transforms_through_both_read_shapes_match_dense_sums_property(B, shape, where, cplx,
                                                                        seed):
    """synthesize, gradients and analyze of a band-L field on a band-B grid agree with
    dense einsums over the loop's full tables to 1e-13 relative, with L <= B/2 (a
    one-block read of pairs 0..L), B/2 < L < B and L = B (two-block reads of every pair);
    synthesize then analyze gives the coefficients back to 1e-12, since a flat spectrum
    at full band loses more in the round trip (4.2e-13 at band 40 with unpacked tables)."""
    lo, hi = {"half": (0, B // 2), "between": (B // 2 + 1, B - 1), "full": (B, B)}[shape]
    L = lo + round(where * (hi - lo))
    rng = np.random.default_rng(seed)
    f = _random_complex_field(L, rng) if cplx else random_real_field(L, rng)
    grid = grid_for_band_limit(B)
    values, dx, dphi, analysis = _dense_reference(f, grid)
    got = synthesize([f], grid)[0]
    assert _rel_to(got, values) < 1e-13
    gx, gp = gradients([f], grid)
    assert _rel_to(gx[0], dx) < 1e-13 and _rel_to(gp[0], dphi) < 1e-13
    v = rng.standard_normal(got.shape) + (1j * rng.standard_normal(got.shape) if cplx else 0.0)
    want = analysis(v)
    want[np.abs(np.arange(-L, L + 1)) > np.arange(L + 1)[:, None]] = 0.0
    assert _rel_to(analyze(v, L, grid).coeffs, want) < 1e-13
    assert _rel_to(analyze(got, L, grid).coeffs, f.coeffs) < 1e-12


@pytest.mark.parametrize("L", [64, 100])
def test_gradients_match_the_dense_reference_at_large_band(L):
    """The x-derivatives from the coefficients, and the phi-derivatives, of a random
    complex band-L field on the band-2L grid agree with dense einsums over the loop's
    dP/dx and P to 1e-13 relative."""
    rng = np.random.default_rng(L)
    f = _random_complex_field(L, rng)
    grid = grid_for_band_limit(2 * L)
    _, dx, dphi, _ = _dense_reference(f, grid)
    gx, gp = gradients([f], grid)
    assert _rel_to(gx[0], dx) < 1e-13 and _rel_to(gp[0], dphi) < 1e-13


def test_harmonic_equator_value():
    """Y11 at the equator node x = 0, phi = 0 of the three-node grid."""
    grid = grid_for_band_limit(2)
    assert abs(grid.x[1]) < 1e-15 and grid.phi[0] == 0.0
    val = synthesize([HarmonicField.basis(1, 1)], grid)[0, 1, 0]
    assert abs(val - (-np.sqrt(3.0 / (8.0 * np.pi)))) < 1e-14


def test_conjugation_symmetry():
    grid = grid_for_band_limit(5)
    for l in (1, 2, 5):
        for m in range(1, l + 1):
            plus = synthesize([HarmonicField.basis(l, m)], grid)[0]
            minus = synthesize([HarmonicField.basis(l, -m)], grid)[0]
            np.testing.assert_allclose(minus, (-1.0) ** m * np.conj(plus), atol=1e-14)


@pytest.mark.parametrize("l,m", [(0, 0), (1, -1), (2, 0), (3, 2), (5, -4)])
def test_basis_norm_is_one(l, m):
    f = HarmonicField.basis(l, m)
    assert abs(f.norm() - 1.0) < 1e-13


def test_basis_orthogonality():
    pairs = [((2, 1), (2, -1)), ((3, 0), (2, 0)), ((4, 2), (4, 3))]
    for (l1, m1), (l2, m2) in pairs:
        a = HarmonicField.basis(l1, m1).pad_to(4)
        b = HarmonicField.basis(l2, m2).pad_to(4)
        assert abs(a.inner(b)) < 1e-13


def test_synthesis_analysis_roundtrip():
    rng = np.random.default_rng(4)
    f = random_real_field(5, rng)
    grid = grid_for_band_limit(2 * 5)
    back = analyze(synthesize([f], grid)[0], 5, grid)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-13)


def test_real_field_synthesizes_real():
    rng = np.random.default_rng(11)
    f = random_real_field(4, rng)
    assert f.is_real()
    grid = grid_for_band_limit(2 * 4)
    for vals in (synthesize([f], grid)[0], *f.grad_values(grid)):
        assert not np.iscomplexobj(vals) or np.max(np.abs(vals.imag)) == 0.0


def _random_real_field_loop(l_max, rng, amplitude=1.0):
    """random_real_field one scalar normal at a time: per degree l, m = 0's draw, then (re, im)
    for m = 1..l, with the mirror entry (-1)^m conj(z). The oracle for the bulk draw."""
    c = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
    for l in range(l_max + 1):
        scale = amplitude * 0.6**l
        c[l, l_max] = scale * rng.standard_normal()
        for m in range(1, l + 1):
            z = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            c[l, l_max + m] = z
            c[l, l_max - m] = (-1.0) ** m * z.conjugate()
    return HarmonicField(l_max, c)


def test_random_real_field_equals_the_scalar_loop_bit_for_bit():
    """Every coefficient bit, sign bits of zeros included, and the stream position afterwards
    match the per-coefficient loop. Bands 0-70 cycle through every (seed, amplitude) pair."""
    cases = [(seed, amplitude) for seed in (0, 7, 2**31 - 1) for amplitude in (1.0, 0.5, 0.4, 0.25)]
    for l_max in range(71):
        seed, amplitude = cases[l_max % len(cases)]
        bulk, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        f = random_real_field(l_max, bulk, amplitude)
        g = _random_real_field_loop(l_max, loop, amplitude)
        assert np.array_equal(f.coeffs.view(float), g.coeffs.view(float)), (l_max, seed, amplitude)
        assert np.array_equal(np.signbit(f.coeffs.view(float)), np.signbit(g.coeffs.view(float)))
        assert bulk.standard_normal() == loop.standard_normal()


class _CountingNormals:
    """A generator that counts its standard_normal calls and passes them on to a real one."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_normal(self, size=None):
        self.calls += 1
        return self._rng.standard_normal(size)


@pytest.mark.parametrize("l_max", [0, 1, 2, 3, 8, 33, 64])
def test_random_real_field_draws_its_normals_in_one_call(l_max):
    rng = _CountingNormals(l_max)
    random_real_field(l_max, rng)
    assert rng.calls == 1


def _random_complex_field(l_max, rng):
    """Field with independent complex coefficients, far from Hermitian."""
    c = rng.standard_normal((l_max + 1, 2 * l_max + 1)) + 1j * rng.standard_normal(
        (l_max + 1, 2 * l_max + 1)
    )
    m = np.arange(-l_max, l_max + 1)
    c[np.abs(m) > np.arange(l_max + 1)[:, None]] = 0.0
    return HarmonicField(l_max, c)


def _direct_sum(f, theta, phi, weight=lambda l, m: 1.0):
    """sum_lm weight(l, m) c_lm Y_lm at the given nodes, one harmonic at a time."""
    total = np.zeros(np.broadcast(theta, phi).shape, dtype=complex)
    for l in range(f.l_max + 1):
        for m in range(-l, l + 1):
            total += weight(l, m) * coefficient(f, l, m) * sph_harm_y(l, m, theta, phi)
    return total


def test_complex_field_synthesis_and_gradient_match_direct_sums():
    f = _random_complex_field(4, np.random.default_rng(21))
    assert not f.is_real()
    grid = grid_for_band_limit(2 * 4)
    theta, phi = _nodes(grid)
    np.testing.assert_allclose(synthesize([f], grid)[0], _direct_sum(f, theta, phi), atol=1e-13)
    dx, dphi = f.grad_values(grid)
    np.testing.assert_allclose(dphi, _direct_sum(f, theta, phi, lambda l, m: 1j * m), atol=1e-12)
    # d/dx = -(d/dtheta) / sin(theta), by a central difference in theta
    h = 1e-5
    d_theta = (_direct_sum(f, theta + h, phi) - _direct_sum(f, theta - h, phi)) / (2 * h)
    np.testing.assert_allclose(dx, -d_theta / np.sin(theta), atol=1e-8)


def test_complex_values_roundtrip():
    f = _random_complex_field(4, np.random.default_rng(22))
    grid = grid_for_band_limit(2 * 4)
    back = analyze(synthesize([f], grid)[0], 4, grid)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-13)


@pytest.mark.parametrize("l,j", [(0, 0), (0, 6), (1, 1), (2, 6), (2, 0)])
def test_field_rejects_coefficient_outside_band(l, j):
    """Slot (l, m = j - 3) with |m| > l at l_max 3."""
    c = np.zeros((4, 7), dtype=complex)
    c[l, j] = 1e-300
    with pytest.raises(ValueError, match=r"\|m\| > l"):
        HarmonicField(3, c)


@pytest.mark.parametrize("l_max", [2, 128])  # the few slots of a small band, the many of a large
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e-300, complex(0.0, np.nan),
                                   complex(-0.0, 5e-324)])
def test_band_check_rejects_any_nonzero_outside_the_band(l_max, value):
    for slot in ((0, 0), (l_max - 1, 2 * l_max)):  # m = -l_max at l = 0; m = l_max at l_max - 1
        c = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
        c[slot] = value
        with pytest.raises(ValueError, match=r"\|m\| > l"):
            HarmonicField(l_max, c)


@pytest.mark.parametrize("l_max", [2, 128])
def test_band_check_accepts_signed_zeros_outside_the_band(l_max):
    c = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
    c[sphere_algebra._outside_band(l_max)] = complex(-0.0, -0.0)
    f = HarmonicField(l_max, c)
    assert f.coeffs.tobytes() == c.tobytes()


def test_grid_exactness_plateau():
    """Integrals computed on the sized grid do not move when the grid is refined."""
    rng = np.random.default_rng(5)
    f = random_real_field(4, rng)
    g = random_real_field(4, rng)
    base = integral_of_product(f, g)
    fine_grid = grid_for_band_limit(30)
    fine = np.sum(synthesize([f], fine_grid)[0] * synthesize([g], fine_grid)[0] * fine_grid.w2d)
    assert abs(base - fine) < 1e-13 * max(1.0, abs(base))


def test_bracket_dipole_oracle():
    br = bracket(HarmonicField.basis(1, 0), HarmonicField.basis(1, 1))
    assert abs(coefficient(br, 1, 1) - 1j * C_DIPOLE) < 1e-14
    for l in range(br.l_max + 1):
        for m in range(-l, l + 1):
            if (l, m) != (1, 1):
                assert abs(coefficient(br, l, m)) < 1e-14


def test_bracket_antisymmetry_is_bitwise():
    rng = np.random.default_rng(9)
    f = random_real_field(4, rng)
    g = random_real_field(3, rng)
    assert np.array_equal(bracket(f, g).coeffs, -bracket(g, f).coeffs)
    assert not np.any(bracket(f, f).coeffs)


def test_bracket_integral_vanishes():
    rng = np.random.default_rng(12)
    f = random_real_field(5, rng)
    g = random_real_field(4, rng)
    assert abs(bracket(f, g).integrate()) < 1e-13


def test_bracket_leibniz_rule():
    rng = np.random.default_rng(4)
    f = random_real_field(5, rng)
    g = random_real_field(4, rng)
    h = random_real_field(3, rng, amplitude=0.8)
    lhs = bracket(f, product(g, h))
    r1 = product(bracket(f, g), h)
    r2 = product(g, bracket(f, h))
    L = max(lhs.l_max, r1.l_max, r2.l_max)
    diff = lhs.pad_to(L).coeffs - r1.pad_to(L).coeffs - r2.pad_to(L).coeffs
    assert np.max(np.abs(diff)) < 1e-13


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(1)
    for _ in range(15):
        ls = rng.integers(1, 3, size=3)
        fields = [
            HarmonicField.basis(int(l), int(rng.integers(-l, l + 1))) for l in ls
        ]
        a, b, c = fields
        j1 = bracket(a, bracket(b, c))
        j2 = bracket(b, bracket(c, a))
        j3 = bracket(c, bracket(a, b))
        L = max(j1.l_max, j2.l_max, j3.l_max)
        total = j1.pad_to(L).coeffs + j2.pad_to(L).coeffs + j3.pad_to(L).coeffs
        assert np.max(np.abs(total)) < 1e-13


def _padded(*fields):
    L = max(f.l_max for f in fields)
    return [f.pad_to(L).coeffs for f in fields]


_seeds = st.integers(min_value=0, max_value=2**31 - 1)
_bands = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)


def _draw(bands, seed):
    rng = np.random.default_rng(seed)
    return [random_real_field(l, rng) for l in bands]


@settings(max_examples=25, deadline=None)
@given(bands=_bands, seed=_seeds)
def test_bracket_antisymmetry_property(bands, seed):
    f, g, _ = _draw(bands, seed)
    assert np.array_equal(bracket(f, g).coeffs, -bracket(g, f).coeffs)
    assert not np.any(bracket(f, f).coeffs)


@settings(max_examples=25, deadline=None)
@given(bands=_bands, seed=_seeds)
def test_bracket_leibniz_property(bands, seed):
    """{f, g h} = {f, g} h + g {f, h}, to rounding of the largest term."""
    f, g, h = _draw(bands, seed)
    lhs, r1, r2 = _padded(bracket(f, product(g, h)), product(bracket(f, g), h),
                          product(g, bracket(f, h)))
    scale = max(np.abs(lhs).max(), np.abs(r1).max(), np.abs(r2).max())
    assert np.abs(lhs - r1 - r2).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(bands=_bands, seed=_seeds)
def test_bracket_jacobi_property(bands, seed):
    """The cyclic sum of nested brackets vanishes to rounding of its terms."""
    f, g, h = _draw(bands, seed)
    j1, j2, j3 = _padded(bracket(f, bracket(g, h)), bracket(g, bracket(h, f)),
                         bracket(h, bracket(f, g)))
    scale = max(np.abs(j1).max(), np.abs(j2).max(), np.abs(j3).max())
    assert np.abs(j1 + j2 + j3).max() <= 1e-12 * scale


_field_kinds = st.lists(st.tuples(st.integers(0, 16), st.booleans()), min_size=1, max_size=5)
# the stack size is drawn on its own: a plain list strategy seldom passes a dozen pairs
_pair_slots = st.integers(0, 40).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(kinds=_field_kinds, slots=_pair_slots, seed=_seeds)
@example(kinds=[(2, False)], slots=[], seed=0)
@example(kinds=[(2, True)], slots=[(0, 0)], seed=1)
@example(kinds=[(2, False), (1, True), (0, False)], slots=[(0, 1), (1, 0), (0, 0), (2, 1)], seed=2)
# nine real pairs and one complex pair at result band 16
@example(kinds=[(8, False), (8, False), (8, False), (8, True)],
         slots=[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 0), (1, 1), (2, 2), (3, 0)],
         seed=3)
def test_brackets_equal_bracket_per_pair_bit_for_bit_property(kinds, slots, seed):
    """A stack of up to 40 pairs with band limits 0-16 mixed (result bands
    up to 32), real and complex fields (kind True), and one field object in
    several pairs gives, pair by pair, the coefficients of bracket bit for
    bit, signed zeros included."""
    rng = np.random.default_rng(seed)
    fields = [_random_complex_field(l, rng) if cplx else random_real_field(l, rng)
              for l, cplx in kinds]
    pairs = [(fields[i % len(fields)], fields[j % len(fields)]) for i, j in slots]
    got = brackets(pairs)
    assert len(got) == len(pairs)
    for (f, g), b in zip(pairs, got):
        want = bracket(f, g)
        assert b.l_max == want.l_max and np.array_equal(b.coeffs, want.coeffs)
        assert b.coeffs.tobytes() == want.coeffs.tobytes()


def test_brackets_transform_each_distinct_field_once(monkeypatch):
    """Per result band limit, each distinct field's gradients come from one
    stacked call per field band limit, whatever the number of pairs it is in."""
    calls = []
    stacked = sphere_algebra._gradients
    monkeypatch.setattr(sphere_algebra, "_gradients", lambda fields, grid: calls.append(
        (grid.band_limit, sorted(map(id, fields)))) or stacked(fields, grid))
    rng = np.random.default_rng(3)
    a, b, c = random_real_field(2, rng), random_real_field(2, rng), random_real_field(1, rng)
    brackets([(a, b), (b, a), (a, a), (a, c), (c, b), (c, c), (a, b)])
    ab = sorted([id(a), id(b)])
    assert sorted(calls) == sorted([(4, ab), (3, ab), (3, [id(c)]), (2, [id(c)])])


def test_brackets_analyze_one_nonempty_stack_per_kind(monkeypatch):
    """Per result band limit, brackets analyzes all its real products in one
    stack and all its complex products in another, and never an empty stack:
    all-real pairs make one analysis per band."""
    stacks = []
    analyze_stack = sphere_algebra._analyze
    monkeypatch.setattr(sphere_algebra, "_analyze", lambda values, L, grid: stacks.append(
        (L, len(values), np.iscomplexobj(values))) or analyze_stack(values, L, grid))
    rng = np.random.default_rng(4)
    a, b, c = random_real_field(2, rng), random_real_field(2, rng), random_real_field(1, rng)
    z = _random_complex_field(2, rng)
    brackets([(a, b), (b, c), (a, a), (c, c)])
    assert sorted(stacks) == [(2, 1, False), (3, 1, False), (4, 2, False)]
    stacks.clear()
    brackets([(a, b), (z, a), (b, a), (c, z), (c, a)])
    assert sorted(stacks) == [(3, 1, False), (3, 1, True), (4, 1, True), (4, 2, False)]


def test_brackets_raise_on_overflow_like_bracket():
    """One field whose grid values overflow in a stack of finite pairs makes
    brackets raise FloatingPointError, as bracket of that pair does."""
    rng = np.random.default_rng(6)
    f, g = random_real_field(2, rng), random_real_field(2, rng)
    with np.errstate(all="ignore"):
        huge = 1e308 * random_real_field(2, rng)
        assert np.isfinite(huge.coeffs).all()
        assert not np.isfinite(huge.grad_values(grid_for_band_limit(4))).all()
        for call in (lambda: bracket(huge, g), lambda: brackets([(f, g), (huge, g), (g, f)])):
            with pytest.raises(FloatingPointError):
                call()


_stack_kinds = st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(kinds=_stack_kinds, extra=st.integers(0, 3), band=st.integers(0, 32),
       rows=st.integers(1, 40), seed=_seeds)
@example(kinds=[(3, False)], extra=0, band=0, rows=1, seed=0)
@example(kinds=[(2, False), (0, True), (2, True), (4, False)], extra=1, band=3, rows=2, seed=1)
@example(kinds=[(1, False)], extra=0, band=16, rows=9, seed=2)
def test_stacked_transforms_equal_one_field_calls_property(kinds, extra, band, rows, seed):
    """Each row of synthesize and gradients over a stack with band limits
    0-4 mixed, real and complex fields (kind True), equals the one-field
    call exactly; the stack is real exactly when every field is Hermitian.
    Each row of _analyze at band limits 0-32 over a stack of 1-40 real value
    arrays, and over one of complex arrays, equals analyze of that row bit
    for bit, signed zeros included."""
    rng = np.random.default_rng(seed)
    fields = [_random_complex_field(l, rng) if cplx else random_real_field(l, rng)
              for l, cplx in kinds]
    grid = grid_for_band_limit(max(l for l, _ in kinds) + extra)
    stacks = (synthesize(fields, grid), *gradients(fields, grid))
    hermitian = all(f.is_real() for f in fields)
    for stack, one in zip(stacks, (lambda f: synthesize([f], grid)[0],
                                   lambda f: gradients([f], grid)[0][0],
                                   lambda f: gradients([f], grid)[1][0])):
        assert stack.shape == (len(fields), grid.n_theta, grid.n_phi)
        assert np.iscomplexobj(stack) != hermitian
        for row, f in zip(stack, fields):
            assert np.array_equal(row, one(f))
    grid = grid_for_band_limit(band + extra)
    values = rng.standard_normal((2, rows, grid.n_theta, grid.n_phi))
    for stack in (values[0], values[0] + 1j * values[1]):
        for row, c in zip(stack, sphere_algebra._analyze(stack, band, grid)):
            assert c.tobytes() == analyze(row, band, grid).coeffs.tobytes()


@pytest.mark.parametrize("l_max", [3, 4])
def test_structure_constants_match_brackets(l_max):
    """Every pair a < b against every c: the closed form against the grid
    bracket, all pairs from one brackets call."""
    C = _structure_constants(l_max)
    labels = _labels(l_max)
    basis = [HarmonicField.basis(l, m) for l, m in labels]
    pairs = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    for (a, b), br in zip(pairs, brackets([(basis[a], basis[b]) for a, b in pairs])):
        got = [coefficient(br, l, m) for l, m in labels]
        assert np.abs(np.array(got) - C[a, b]).max() < 1e-13


def test_structure_constants_do_not_use_the_grid_bracket(monkeypatch):
    """The closed form stays independent of the bracket it is checked
    against: no bracket, no gradients and no analysis."""
    def forbidden(*args):
        raise AssertionError("structure_constants called the grid bracket")

    for name in ("bracket", "brackets", "_gradients", "_analyze"):
        monkeypatch.setattr(sphere_algebra, name, forbidden)
    structure_constants(3)


def test_structure_constants_l0_row_is_zero():
    C = structure_constants(2)
    row = (lm_pairs(2) == (0, 0)).all(axis=1)
    assert not np.any(C[row, :, :])
    assert not np.any(C[:, row, :])


def test_lm_pairs_list_the_flat_coefficient_order():
    """Row l^2 + l + m of lm_pairs holds (l, m), the order of the structure
    constants' indices."""
    pairs = lm_pairs(4)
    assert pairs.shape == (25, 2)
    assert [tuple(p) for p in pairs] == [(l, m) for l in range(5) for m in range(-l, l + 1)]


@settings(max_examples=25, deadline=None)
@given(l=st.integers(min_value=0, max_value=4), seed=_seeds)
def test_dipole_bracket_rotates_property(l, seed):
    """{Y10, f} = i m sqrt(3/4pi) f_lm: the l = 1 generator acts as d/dphi."""
    f = random_real_field(l, np.random.default_rng(seed))
    got = bracket(HarmonicField.basis(1, 0), f)
    m = np.arange(-f.l_max, f.l_max + 1)
    want = HarmonicField(f.l_max, 1j * m * C_DIPOLE * f.coeffs).pad_to(got.l_max)
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * np.abs(f.coeffs).max()


def _wigner_3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol of integer arguments by the Racah formula (Edmonds,
    Angular Momentum in Quantum Mechanics, 1957)."""
    if m1 + m2 + m3 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    triangle = f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(j2 + j3 - j1) / f(j1 + j2 + j3 + 1)
    norm = f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    terms = range(max(0, j2 - j3 - m1, j1 - j3 + m2), min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1)
    total = sum((-1) ** k / (f(k) * f(j3 - j2 + k + m1) * f(j3 - j1 + k - m2)
                             * f(j1 + j2 - j3 - k) * f(j1 - k - m1) * f(j2 - k + m2))
                for k in terms)
    return (-1) ** (j1 - j2 - m3) * math.sqrt(triangle * norm) * total


def _labels(l_max):
    return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


def _closed_form_constant(a, b, c):
    """f_abc for labels (l, m): zero unless l_a + l_b + l_c is odd, else
    -i (-1)^m_c sqrt(l_a(l_a+1) l_b(l_b+1) (2l_a+1)(2l_b+1)(2l_c+1) / 4pi)
    (l_a l_b l_c; 1 -1 0) (l_a l_b l_c; m_a m_b -m_c)."""
    (la, ma), (lb, mb), (lc, mc) = a, b, c
    if (la + lb + lc) % 2 == 0:
        return 0j
    scale = math.sqrt(la * (la + 1) * lb * (lb + 1) * (2 * la + 1) * (2 * lb + 1)
                      * (2 * lc + 1) / (4.0 * math.pi))
    return (-1j * (-1) ** mc * scale * _wigner_3j(la, lb, lc, 1, -1, 0)
            * _wigner_3j(la, lb, lc, ma, mb, -mc))


def _dense(S):
    """The (N, N, N) tensor f_abc = i S[a, b, l_c] at m_c = m_a + m_b, 0 elsewhere,
    indexed by the rows of lm_pairs in every slot."""
    N, l_max = len(S), S.shape[2] - 1
    m = lm_pairs(l_max)[:, 1]
    a, b, lc = np.indices(S.shape).reshape(3, -1)
    mc = m[a] + m[b]
    a, b, lc, mc = (x[abs(mc) <= lc] for x in (a, b, lc, mc))
    C = np.zeros((N, N, N), dtype=complex)
    C.imag[a, b, lc * lc + lc + mc] = S[a, b, lc]
    return C


@lru_cache(maxsize=None)
def _structure_constants(l_max):
    return _dense(structure_constants(l_max))


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5, 6, 7])
def test_structure_constants_match_wigner_3j_closed_form(l_max):
    """The numerical tensor against the independent closed form."""
    C = _structure_constants(l_max)
    labels = _labels(l_max)
    oracle = np.array([[[_closed_form_constant(a, b, c) for c in labels] for b in labels]
                       for a in labels])
    assert np.abs(C - oracle).max() <= 1e-12 * np.abs(C).max()


@settings(max_examples=50, deadline=None)
@given(l_max=st.integers(min_value=1, max_value=5), data=st.data())
def test_structure_constants_selection_rules_property(l_max, data):
    """f_abc vanishes to rounding unless m_c = m_a + m_b, l_a + l_b + l_c is
    odd and (l_a, l_b, l_c) is a triangle."""
    C = _structure_constants(l_max)
    labels = _labels(l_max)
    a, b, c = data.draw(st.tuples(*[st.integers(0, len(labels) - 1)] * 3))
    (la, ma), (lb, mb), (lc, mc) = labels[a], labels[b], labels[c]
    allowed = mc == ma + mb and (la + lb + lc) % 2 == 1 and abs(la - lb) <= lc <= la + lb
    if not allowed:
        assert abs(C[a, b, c]) <= 1e-13 * np.abs(C).max()


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5, 6, 8])
def test_structure_constants_off_order_entries_are_exact_zeros(l_max):
    """{Y_a, Y_b} has the single order m_a + m_b, which no degree below
    |m_a + m_b| carries, so every slot with |m_a + m_b| > l_c is 0.0, not
    rounding noise."""
    S = structure_constants(l_max)
    m = lm_pairs(l_max)[:, 1]
    off_order = abs(m[:, None, None] + m[None, :, None]) > np.arange(l_max + 1)
    assert not np.any(S[off_order])


@pytest.mark.parametrize("l_max", range(1, 9))
def test_structure_constants_are_imaginary_and_exactly_antisymmetric(l_max):
    """The phi integral leaves i times a real x integral, and the x integrand
    changes sign exactly under a <-> b: no real part and no rounding in
    the antisymmetry. Only that real integral, S, is stored."""
    S = structure_constants(l_max)
    N = (l_max + 1) ** 2
    assert S.dtype == np.float64 and S.shape == (N, N, l_max + 1)
    assert np.array_equal(S, -S.transpose(1, 0, 2))


def _full_table_structure_constants(l_max):
    """The structure constants from one N^2-by-node table T = m_b P_a' P_b,
    antisymmetrized as T - T^T over all pairs and gathered per order, with P' from the
    unpacked P on every node by the recurrence of _x_derivative."""
    N = (l_max + 1) ** 2
    out = np.zeros((N, N, l_max + 1))
    grid = grid_for_band_limit(2 * l_max)
    ls, ms = lm_pairs(l_max).T
    sign = np.where(ms < 0, sphere_algebra._column_parity(l_max)[l_max + ms], 1.0)[:, None]
    x, table = _grid_table(2 * l_max)
    full, m = _unpacked(table), abs(ms)
    alpha = sphere_algebra._alpha
    steps = np.stack([-(ls + 1) * alpha(ls, m), ls * alpha(ls + 1, m)])[..., None]
    dx = sphere_algebra._x_derivative(full[ls - 1, m], full[ls + 1, m], steps) / (x * x - 1.0)
    P, dPdx = sign * full[ls, m], sign * dx
    T = ms[:, None] * (dPdx[:, None] * P)
    T = (T - T.transpose(1, 0, 2)) * (2.0 * math.pi * grid.w)
    orders = ms[:, None] + ms
    for m in range(-l_max, l_max + 1):
        pairs = orders == m
        out[pairs, abs(m):] = np.einsum("pj,cj->pc", T[pairs], P[ms == m])
    return out


@pytest.mark.parametrize("l_max", range(1, 11))
def test_structure_constants_equal_the_full_table_bit_for_bit(l_max):
    """Built order by order, from each order's pairs alone, S keeps every
    bit of the full-table construction."""
    assert np.array_equal(structure_constants(l_max), _full_table_structure_constants(l_max))


def test_structure_constants_allocate_no_pair_by_node_table():
    """At l_max 12 the kernel's allocations peak at 2 S.nbytes or less. The
    full table T, N^2 (2 l_max + 1) doubles, is 1.9 S.nbytes alone, and
    with its antisymmetrized copy the full-table kernel peaks at 6.8."""
    structure_constants(12)  # builds the band-24 grid
    tracemalloc.start()
    try:
        S = structure_constants(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * S.nbytes


def test_su2_closure():
    _, c, residual, printed_residual = su2_generators()
    assert residual < 1e-10
    assert abs(c - (-C_DIPOLE)) < 1e-12
    assert abs(printed_residual - 0.5150322693642524) < 1e-12


def test_su2_bracket_relations():
    """Each cyclic bracket closes onto the third generator scaled by the
    single measured constant."""
    (t1, t2, t3), c_shared, _, _ = su2_generators()
    for a, b, c in ((t1, t2, t3), (t2, t3, t1), (t3, t1, t2)):
        br = bracket(a, b)
        L = max(br.l_max, c.l_max)
        diff = br.pad_to(L).coeffs - c_shared * c.pad_to(L).coeffs
        assert np.max(np.abs(diff)) < 1e-13


def test_su2_generators_take_one_brackets_call(monkeypatch):
    """The six cyclic brackets, of the printed triple and of the real one,
    come from one brackets call and no per-pair bracket call."""
    calls = []
    real = sphere_algebra.brackets

    def counted(pairs):
        calls.append(len(pairs))
        return real(pairs)

    def refuse(f, g):
        raise AssertionError("per-pair bracket called")

    monkeypatch.setattr(sphere_algebra, "brackets", counted)
    monkeypatch.setattr(sphere_algebra, "bracket", refuse)
    su2_generators()
    assert calls == [6]


def test_field_serialization_roundtrip():
    rng = np.random.default_rng(6)
    f = random_real_field(3, rng)
    back = HarmonicField.from_dict(f.to_dict())
    assert back.l_max == f.l_max
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-15)


def test_grid_rejects_negative_band_limit():
    with pytest.raises(ValueError):
        grid_for_band_limit(-1)


@settings(max_examples=25, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_property(l, seed):
    f = random_real_field(l, np.random.default_rng(seed))
    grid = grid_for_band_limit(2 * max(l, 1))
    back = analyze(synthesize([f], grid)[0], f.l_max, grid)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    s1=st.integers(min_value=0, max_value=10**6),
    s2=st.integers(min_value=0, max_value=10**6),
)
def test_parseval_property(s1, s2):
    """The quadrature inner product agrees with the coefficient inner product."""
    f = random_real_field(3, np.random.default_rng(s1))
    g = random_real_field(3, np.random.default_rng(s2))
    spectral = np.vdot(f.coeffs, g.coeffs).real
    quadrature = integral_of_product(f, g).real
    assert abs(spectral - quadrature) < 1e-12 * max(1.0, abs(spectral))
