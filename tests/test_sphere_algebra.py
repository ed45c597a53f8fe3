from functools import lru_cache
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    lm_index,
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
    """The Legendre tables by the element-wise loop over (l, m) that the
    vectorized _legendre_tables replaced: the oracle for its arithmetic."""
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


def test_legendre_tables_equal_the_elementwise_loop():
    """The tables, vectorized over the orders, equal the loop bit for bit on
    every grid up to band limit 70: the same operations per element, in the
    same order."""
    for band_limit in range(71):
        x = grid_for_band_limit(band_limit).x
        for table, oracle in zip(sphere_algebra._legendre_tables(band_limit, x),
                                 _legendre_loop(band_limit, x)):
            assert np.array_equal(table, oracle), band_limit


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


_field_kinds = st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=5)
_pair_slots = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12)


@settings(max_examples=60, deadline=None)
@given(kinds=_field_kinds, slots=_pair_slots, seed=_seeds)
@example(kinds=[(2, False)], slots=[], seed=0)
@example(kinds=[(2, True)], slots=[(0, 0)], seed=1)
@example(kinds=[(2, False), (1, True), (0, False)], slots=[(0, 1), (1, 0), (0, 0), (2, 1)], seed=2)
def test_brackets_equal_bracket_per_pair_bit_for_bit_property(kinds, slots, seed):
    """A stack of pairs with band limits 0-4 mixed, real and complex fields
    (kind True), and one field object in several pairs gives, pair by pair,
    the coefficients of bracket bit for bit, signed zeros included."""
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
@given(kinds=_stack_kinds, extra=st.integers(0, 3), seed=_seeds)
@example(kinds=[(3, False)], extra=0, seed=0)
@example(kinds=[(2, False), (0, True), (2, True), (4, False)], extra=1, seed=1)
def test_stacked_transforms_equal_one_field_calls_property(kinds, extra, seed):
    """Each row of synthesize and gradients over a stack with band limits
    0-4 mixed, real and complex fields (kind True), equals the one-field
    call exactly; the stack is real exactly when every field is Hermitian."""
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


def test_structure_constants_match_brackets():
    C = structure_constants(3)
    rng = np.random.default_rng(2)
    n = C.shape[0]
    for _ in range(20):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        li = int(np.floor(np.sqrt(i)))
        mi = i - li * li - li
        lj = int(np.floor(np.sqrt(j)))
        mj = j - lj * lj - lj
        br = bracket(HarmonicField.basis(li, mi), HarmonicField.basis(lj, mj))
        for k in range(n):
            lk = int(np.floor(np.sqrt(k)))
            mk = k - lk * lk - lk
            got = coefficient(br, lk, mk) if lk <= br.l_max else 0.0
            assert abs(got - C[i, j, k]) < 1e-13


def test_structure_constants_transform_each_basis_harmonic_once(monkeypatch):
    """One quadrature per row: no bracket per pair, and across the per-band
    gradient calls every basis harmonic (16 within l_max = 3) once."""
    def no_bracket(f, g):
        raise AssertionError("structure_constants called bracket")

    calls = []
    stacked = sphere_algebra._gradients
    monkeypatch.setattr(sphere_algebra, "bracket", no_bracket)
    monkeypatch.setattr(sphere_algebra, "_gradients",
                        lambda fields, grid: calls.append(fields) or stacked(fields, grid))
    structure_constants(3)
    # Y_lm is the field of band limit l whose one nonzero coefficient is (l, m)
    labels = [(f.l_max, int(np.flatnonzero(f.coeffs[-1])[0]) - f.l_max)
              for fields in calls for f in fields]
    assert sorted(labels) == [(l, m) for l in range(4) for m in range(-l, l + 1)]
    assert sorted(({f.l_max for f in fields} for fields in calls), key=min) == [{0}, {1}, {2}, {3}]


def test_structure_constants_l0_row_is_zero():
    C = structure_constants(2)
    assert not np.any(C[lm_index(0, 0), :, :])
    assert not np.any(C[:, lm_index(0, 0), :])


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


@lru_cache(maxsize=None)
def _structure_constants(l_max):
    return structure_constants(l_max)


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


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5])
def test_structure_constants_off_order_entries_are_exact_zeros(l_max):
    """{Y_a, Y_b} has the single order m_a + m_b, so every entry with
    m_c != m_a + m_b is 0.0, not rounding noise."""
    C = _structure_constants(l_max)
    m = np.array([m for _, m in _labels(l_max)])
    off_order = m[:, None, None] + m[None, :, None] != m[None, None, :]
    assert not np.any(C[off_order])


def test_su2_closure():
    gen = su2_generators()
    assert gen.basis == "real_combination"
    assert gen.substituted
    assert gen.closure_residual < 1e-10
    assert abs(gen.c - (-C_DIPOLE)) < 1e-12
    assert abs(gen.printed_residual - 0.5150322693642524) < 1e-12


def test_su2_bracket_relations():
    """Each cyclic bracket closes onto the third generator scaled by the
    single measured constant."""
    gen = su2_generators()
    t1, t2, t3 = gen.as_tuple()
    for a, b, c in ((t1, t2, t3), (t2, t3, t1), (t3, t1, t2)):
        br = bracket(a, b)
        L = max(br.l_max, c.l_max)
        diff = br.pad_to(L).coeffs - gen.c * c.pad_to(L).coeffs
        assert np.max(np.abs(diff)) < 1e-13


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
