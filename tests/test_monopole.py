import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.sparse import csr_matrix

from uinf import monopole
from uinf.monopole import (
    SECOND_LINE_COEFFS,
    MonopoleProfile,
    RadialGrid,
    bogomolnyi_residuals,
    bps_profile,
    convergence_check,
    cutoff_growth,
    energy_breakdown,
    energy_scan,
    fd1,
    linearized_forcing,
    perturbation_report,
    physical_energy,
    second_line_integral,
    solve_perturbation,
    tail_estimate,
)
from monopole_checks import (
    fd2,
    functional_gradient,
    gaussian_bump,
    perturb_profile,
    random_direction,
    sine_bump,
    variational_check,
)

FROZEN_COMPLETED = 0.9999999728587856
FROZEN_SECOND_LINE = 413879.65593081695
FROZEN_MIN_SV = 0.0026025270674390087


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 8)
    grid = RadialGrid(20.0, 200)
    assert grid.h == pytest.approx(0.1)
    assert grid.xi[0] == pytest.approx(grid.h)
    assert grid.xi[-1] == pytest.approx(20.0)


@pytest.mark.parametrize("deriv,order", [(fd1, 1), (fd2, 2)])
def test_stencils_exact_on_quartics(deriv, order):
    """Fourth order stencils reproduce polynomial derivatives to rounding."""
    h = 0.05
    x = np.arange(60) * h
    coef = np.array([0.3, -1.2, 0.7, 0.4, -0.1])
    p = np.polynomial.Polynomial(coef)
    expected = p.deriv(order)(x)
    got = deriv(p(x), h)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_hedgehog_solves_first_order_system(reference_profile):
    rk, rh = bogomolnyi_residuals(reference_profile)
    assert np.max(np.abs(rk)) < 1e-8
    assert np.max(np.abs(rh)) < 1e-8


def test_hedgehog_boundary_behavior(reference_profile):
    K = reference_profile.K
    H = reference_profile.H
    xi = reference_profile.grid.xi
    assert K[0] == pytest.approx(1.0, abs=1e-4)
    assert abs(K[-1]) < 1e-9
    assert H[0] == pytest.approx(0.0, abs=1e-4)
    assert H[-1] == pytest.approx(xi[-1] - 1.0, rel=1e-9)


def test_energy_breakdown_frozen(reference_profile):
    evb = energy_breakdown(reference_profile)
    assert evb.completed == pytest.approx(FROZEN_COMPLETED, rel=1e-12)
    assert abs(evb.completed - 1.0) < 1e-7
    assert evb.squared_form_integral < 1e-15
    assert abs(evb.rearrangement_gap) < 1e-9
    assert evb.tail == pytest.approx(tail_estimate(25.0))
    assert evb.raw_integral + evb.tail == pytest.approx(evb.completed)


def _closed_squared_form(profile):
    """The squared form written out: (K' + K H/xi)**2 + ((H' - H/xi) - (1 - K**2)/xi)**2/2."""
    xi, K, H = profile.grid.xi, profile.K, profile.H
    Kp, Hp = fd1(K, profile.grid.h), fd1(H, profile.grid.h)
    return (Kp + K * H / xi) ** 2 + 0.5 * ((Hp - H / xi) - (1.0 - K ** 2) / xi) ** 2


def test_squared_form_is_the_bogomolnyi_residuals_squared(reference_profile):
    """energy_breakdown's squared form, (r1**2 + r2**2/2)/xi**2 from the
    Bogomolnyi residuals, integrates to the closed form on four seeded smooth
    deformations of the profile. On the closed-form profile itself both are
    rounding noise near 1e-21, so there only an absolute bound means anything."""
    bumped = [perturb_profile(reference_profile, np.random.default_rng(seed)) for seed in range(4)]
    for profile in [reference_profile] + bumped:
        oracle = float(monopole._simpson(_closed_squared_form(profile), profile.grid.xi))
        got = energy_breakdown(profile).squared_form_integral
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-24)
    assert min(energy_breakdown(p).squared_form_integral for p in bumped) > 1e-6


def test_profile_takes_its_derivatives_once(monkeypatch):
    """The energy breakdown, the correction integral and the residuals of one
    fresh profile share one fd1 pass over each of K and H; bps_profile takes
    none. The profile is frozen, so the cached pair cannot go stale."""
    calls = []
    real = monopole.fd1
    monkeypatch.setattr(monopole, "fd1", lambda values, h: calls.append(h) or real(values, h))
    profile = bps_profile(RadialGrid(25.0, 400))
    assert calls == []
    energy_breakdown(profile)
    second_line_integral(profile, None)
    bogomolnyi_residuals(profile)
    assert len(calls) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.K = profile.H


def test_energy_minimum_under_perturbations(reference_profile):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        bumped = perturb_profile(reference_profile, rng)
        assert energy_breakdown(bumped).completed >= FROZEN_COMPLETED - 1e-12


def test_functional_gradient_small_at_minimum(reference_profile):
    gK, gH = functional_gradient(reference_profile)
    assert np.max(np.abs(gK)) < 1e-7
    assert np.max(np.abs(gH)) < 1e-7


def test_variational_identity(reference_profile):
    out = variational_check(reference_profile, rng=np.random.default_rng(0), pairs=10)
    assert out["pairs"] == 10
    assert out["max_rel_error"] < 1e-7


def test_second_line_integral_frozen(reference_profile):
    assert second_line_integral(reference_profile, None) == pytest.approx(
        FROZEN_SECOND_LINE, rel=1e-12
    )


def test_second_line_coefficients_are_immutable_defaults(reference_profile):
    """Passing the published coefficients explicitly changes nothing."""
    explicit = second_line_integral(reference_profile, dict(SECOND_LINE_COEFFS))
    assert explicit == pytest.approx(FROZEN_SECOND_LINE, rel=1e-15)
    with pytest.raises(ValueError):
        second_line_integral(reference_profile, {"h2_kprime2": 15, "bogus": 1.0})


@pytest.mark.parametrize("term", [None, *SECOND_LINE_COEFFS])
def test_linearized_forcing_matches_a_central_difference(reference_profile, term):
    """The hand-derived forcing paired with interior directions against the
    central difference of the correction integral, for the published table
    and for each term alone."""
    coeffs = None if term is None else {
        name: value if name == term else 0.0 for name, value in SECOND_LINE_COEFFS.items()}
    grid = reference_profile.grid
    rng = np.random.default_rng(0)
    step = 1e-5
    for _ in range(5):
        base = perturb_profile(reference_profile, rng, amplitude=0.2, modes=8)
        u = random_direction(grid, rng)
        v = random_direction(grid, rng)
        plus, minus = (second_line_integral(
            MonopoleProfile(grid, base.K + s * u, base.H + s * v), coeffs) for s in (step, -step))
        phi_K, phi_H = linearized_forcing(base, coeffs)
        paired = float(simpson(phi_K * u + phi_H * v, x=grid.xi))
        assert abs((plus - minus) / (2.0 * step) - paired) <= 1e-6 * abs(paired)


def test_cutoff_growth_is_cubic(reference_profile):
    out = cutoff_growth(reference_profile)
    assert 2.8 < out["log_slope"] < 3.4
    assert out["cubic_coefficient"] == pytest.approx(82.0 / 3.0, rel=0.1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 4000, 4001])
def test_simpson_is_scipys_rule_bit_for_bit(n):
    """The numpy Simpson rule returns scipy's value exactly, for the odd
    and even node counts of the uniform grids and on irregular nodes."""
    rng = np.random.default_rng(n)
    xi = np.linspace(25.0 / n, 25.0, n)
    irregular = np.cumsum(rng.uniform(0.01, 1.0, n))
    for x in (xi, irregular):
        for y in (np.exp(-x) * x ** 2, rng.standard_normal(n) * 1e3):
            assert monopole._simpson(y, x) == simpson(y, x=x)


def test_simpson_last_interval_uses_scipys_array_powers():
    """The last-interval weights of an even count raise spacings to powers,
    and numpy's array power (SIMD pow on some hosts) can round differently
    from its scalar power. A long last interval and a lone sample at the
    third node from the end make the eta weight the value, so a rule that
    took the powers of scalars drifts from scipy's in the last bit there."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = np.cumsum(rng.uniform(0.01, 1.0, 16))
        x[-1] += 30.0 * (x[-1] - x[-2])
        y = np.zeros(16)
        y[-3] = rng.standard_normal()
        assert monopole._simpson(y, x) == simpson(y, x=x)


def test_simpson_matches_scipy_on_the_cutoff_prefixes(monkeypatch):
    """Every prefix integral cutoff_growth takes, on odd and even grids,
    equals scipy's bit for bit."""
    taken = []
    real = monopole._simpson

    def recorded(y, x):
        taken.append((y, x))
        return real(y, x)

    monkeypatch.setattr(monopole, "_simpson", recorded)
    for n in (16, 17, 4000, 4001):
        cutoff_growth(bps_profile(RadialGrid(25.0, n)))
    assert len(taken) == 20 and {len(y) % 2 for y, _ in taken} == {0, 1}
    for y, x in taken:
        assert real(y, x) == simpson(y, x=x)


def test_solve_perturbation_solves_through_the_module_spsolve(monkeypatch, reference_profile):
    """The response makes one sparse solve, through the module-level
    spsolve: that name is the binding site a caller (the benchmark tracer)
    wraps to time the solve, so a solver imported elsewhere would bypass it."""
    calls = []
    real = monopole.spsolve

    def counted(A, b):
        calls.append(A.shape)
        return real(A, b)

    monkeypatch.setattr(monopole, "spsolve", counted)
    pert = solve_perturbation(reference_profile)
    n = reference_profile.grid.n
    assert calls == [(2 * n, 2 * n)]
    assert np.isfinite(pert.K1).all() and np.isfinite(pert.H1).all()


def test_perturbation_solver_frozen(reference_profile):
    pert = solve_perturbation(reference_profile)
    assert np.all(np.isfinite(pert.K1))
    assert np.all(np.isfinite(pert.H1))
    assert pert.min_singular_value == pytest.approx(FROZEN_MIN_SV, rel=1e-6)
    assert perturbation_report(reference_profile, pert)["diagnostic_n"] == 400


def test_solve_perturbation_takes_no_dense_svd(monkeypatch, reference_profile):
    def refuse(*args, **kwargs):
        raise AssertionError("dense SVD called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    pert = solve_perturbation(reference_profile)
    assert pert.min_singular_value == pytest.approx(FROZEN_MIN_SV, rel=1e-6)


@pytest.mark.parametrize("xi_max, tight", [
    (10.0, True), (25.0, True), (1000.0, True),
    (1e-3, False), (0.1, False), (1.0, False), (1e4, False), (1e6, False),
])
def test_min_singular_value_agrees_with_the_dense_svd(xi_max, tight):
    """The block inverse iteration converges below its cap and agrees with
    the dense SVD of the 400-node operator: within 1e-9 relative where that
    SVD is accurate to that, and otherwise within the SVD's own error
    10 eps sigma_max / sigma_min (at xi_max <= 0.1 the two smallest singular
    values agree to 1e-3 and closer, which a single vector would not resolve)."""
    profile = bps_profile(RadialGrid(xi_max, 400))
    pert = solve_perturbation(profile)
    assert pert.diagnostic_change <= 1e-12
    assert 1 <= pert.diagnostic_iterations < monopole._DIAGNOSTIC_MAX_ITER
    sv = np.linalg.svd(monopole._linear_operator(profile).toarray(), compute_uv=False)
    rel = abs(pert.min_singular_value - sv[-1]) / sv[-1]
    dense_error = 10.0 * np.finfo(float).eps * sv[0] / sv[-1]
    assert rel <= (1e-9 if tight else max(1e-9, dense_error))


def _dense_operator(profile):
    """The stencil of the linearized system, entry by entry: interior rows of
    both functions, regularity rows xi y' - 2 y = 0 at the first node and
    cutoff rows K1' + K1 = 0, H1' = 0 at the last, with 3-point one-sided y'."""
    n, h, xi = profile.grid.n, profile.grid.h, profile.grid.xi
    A = np.zeros((2 * n, 2 * n))
    inv_h2 = 1.0 / (h * h)
    for i in range(1, n - 1):
        K, H, x2 = profile.K[i], profile.H[i], xi[i] ** 2
        A[2 * i, 2 * i - 2] = A[2 * i, 2 * i + 2] = -2.0 * inv_h2
        A[2 * i, 2 * i] = 4.0 * inv_h2 + (2.0 * (3.0 * K ** 2 - 1.0) + 2.0 * H ** 2) / x2
        A[2 * i, 2 * i + 1] = A[2 * i + 1, 2 * i] = 4.0 * K * H / x2
        A[2 * i + 1, 2 * i - 1] = A[2 * i + 1, 2 * i + 3] = -inv_h2
        A[2 * i + 1, 2 * i + 1] = 2.0 * inv_h2 + 2.0 * K ** 2 / x2
    for f in (0, 1):
        A[f, f] = xi[0] * (-3.0 / (2.0 * h)) - 2.0
        A[f, f + 2] = xi[0] * (4.0 / (2.0 * h))
        A[f, f + 4] = xi[0] * (-1.0 / (2.0 * h))
        last = 2 * (n - 1) + f
        A[last, last] = 3.0 / (2.0 * h) + (1.0 if f == 0 else 0.0)
        A[last, last - 2] = -4.0 / (2.0 * h)
        A[last, last - 4] = 1.0 / (2.0 * h)
    return A


@pytest.mark.parametrize("n", [16, 17, 40])
def test_linear_operator_matches_the_documented_stencil(n):
    profile = bps_profile(RadialGrid(25.0, n))
    bumped = perturb_profile(profile, np.random.default_rng(n))
    for prof in (profile, bumped):
        assert np.array_equal(monopole._linear_operator(prof).toarray(), _dense_operator(prof))


def _jacobian_errors(n):
    """Max relative error, K rows then H rows, of the linear operator applied
    to a random interior direction against a central difference (step 1e-3)
    of functional_gradient, on nodes 5..n-6 where fd2 is centered."""
    grid = RadialGrid(25.0, n)
    profile = bps_profile(grid)
    rng = np.random.default_rng(0)
    u, v = random_direction(grid, rng), random_direction(grid, rng)
    applied = monopole._linear_operator(profile) @ np.column_stack([u, v]).ravel()
    step = 1e-3
    plus, minus = (functional_gradient(MonopoleProfile(grid, profile.K + s * u, profile.H + s * v))
                   for s in (step, -step))
    inner = slice(5, n - 5)
    errors = []
    for row, (gp, gm) in enumerate(zip(plus, minus)):
        jacobian = ((gp - gm) / (2.0 * step))[inner]
        errors.append(np.abs(applied[row::2][inner] - jacobian).max() / np.abs(jacobian).max())
    return np.array(errors)


def test_linear_operator_is_the_jacobian_of_the_gradient():
    """The response operator is the second-order discretization of the
    derivative of functional_gradient (whose fd2 is fourth order): the gap
    closes at the observed order 2 under grid doubling."""
    e1000, e2000, e4000 = (_jacobian_errors(n) for n in (1000, 2000, 4000))
    assert np.all(e1000 < 1e-3)
    for coarse, fine in ((e1000, e2000), (e2000, e4000)):
        order = np.log2(coarse / fine)
        assert np.all((1.8 <= order) & (order <= 2.2)), order


def _csr(A):
    """The block operator A as a scipy CSR matrix, built from its blocks and
    reaches: the oracle's products with A and A^T."""
    n = A.diag.shape[-1]
    rows, cols, vals = [], [], []
    for shift, blocks in ((-1, A.lower), (0, A.diag), (1, A.upper)):
        i = np.arange(max(0, -shift), n - max(0, shift))
        for a in (0, 1):
            for b in (0, 1):
                rows.append(2 * i + a)
                cols.append(2 * (i + shift) + b)
                vals.append(blocks[a, b, i])
    for i, j, c in A.reach:
        rows.append([2 * i, 2 * i + 1])
        cols.append([2 * j, 2 * j + 1])
        vals.append([c, c])
    return csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=A.shape)


def _normwise_backward_error(M, x, b):
    """Largest ||M x - b|| / (||M|| ||x|| + ||b||) over the columns, in max norms."""
    norm = abs(M).sum(axis=1).max()
    residual = np.abs(M @ x - b).max(axis=0)
    return (residual / (norm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))).max()


def test_csr_oracle_is_the_operator():
    profile = bps_profile(RadialGrid(25.0, 40))
    A = monopole._linear_operator(profile)
    x = np.random.default_rng(0).standard_normal(A.shape[0])
    M = _csr(A)
    assert np.array_equal(M.toarray(), A.toarray())
    # the two products sum each row's five terms in different orders
    assert np.all(np.abs(A @ x - M @ x) <= 4 * np.finfo(float).eps * (abs(M) @ np.abs(x)))


@pytest.mark.parametrize("n", [16, 17, 18, 19, 32, 33, 400, 401, 4000, 4001])
def test_block_solves_are_backward_stable(n):
    """Cyclic reduction does not pivot; its stability here rests on this
    sweep. Solves with A and with A^T have a normwise backward error of at
    most 1e-14 at every cutoff from 1e-3 to 1e60."""
    rhs = np.random.default_rng(n).standard_normal((2 * n, 3))
    for xi_max in (1e-3, 0.1, 1.0, 25.0, 1e3, 1e6, 1e30, 1e60):
        A = monopole._linear_operator(bps_profile(RadialGrid(xi_max, n)))
        M = _csr(A)
        for lu, matrix in ((monopole._Factorization(A), M), (monopole._Factorization(A.T), M.T)):
            assert _normwise_backward_error(matrix, lu.solve(rhs), rhs) <= 1e-14, xi_max


def test_several_right_hand_sides_solve_as_single_columns(reference_profile):
    """Columns of different sizes solve together as they solve alone, up to
    the rounding of the dense core solve, which LAPACK blocks by the column
    count (7e-16 relative here)."""
    A = monopole._linear_operator(reference_profile)
    rhs = np.random.default_rng(1).standard_normal((A.shape[0], 4)) * [1.0, 1e-3, 1e5, 1.0]
    for lu in (monopole._Factorization(A), monopole._Factorization(A.T)):
        together = lu.solve(rhs)
        single = np.column_stack([lu.solve(rhs[:, k]) for k in range(4)])
        assert np.all(np.abs(together - single).max(axis=0) <= 1e-14 * np.abs(single).max(axis=0))
    b = rhs[:, 0]
    assert np.array_equal(monopole.spsolve(A, b), monopole._Factorization(A).solve(b))


@pytest.mark.parametrize("node", [0, 2, 200, 399])
def test_a_zero_pivot_block_is_exactly_singular(node):
    """A zero diagonal block with its couplings at a boundary node, or at an
    interior node that the reduction pivots on, raises LinAlgError before
    anything divides by it."""
    A = monopole._linear_operator(bps_profile(RadialGrid(25.0, 400)))
    for blocks in (A.lower, A.diag, A.upper):
        blocks[..., node] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="exactly singular"):
        monopole._Factorization(A)


def test_solve_commutes_with_powers_of_two():
    """The right-hand side is scaled by a power of two before the reduction,
    and the solution back after, so scaling b by 2**1020 scales x by 2**1020
    bit for bit, to a solution of 3.4e307, where the reduction's intermediate
    sums on the unscaled b overflow."""
    A = monopole._linear_operator(bps_profile(RadialGrid(25.0, 400)))
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = np.ldexp(monopole.spsolve(A, b), 1020)
    assert np.isfinite(x).all() and np.array_equal(monopole.spsolve(A, np.ldexp(b, 1020)), x)


@pytest.mark.parametrize("xi_max", [1e80, 1e100])
def test_huge_cutoffs_keep_a_finite_response(xi_max):
    """At cutoffs of 1e80 and 1e100 the response stays finite and the solve
    backward stable; the diagnostic there overflows and reads NaN."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pert = solve_perturbation(bps_profile(RadialGrid(xi_max, 400)))
    assert np.isfinite(pert.K1).all() and np.isfinite(pert.H1).all()
    assert pert.backward_error < 1e-14
    assert math.isnan(pert.min_singular_value)


def test_perturbation_backward_error_is_reported(reference_profile):
    pert = solve_perturbation(reference_profile)
    assert 0.0 < pert.backward_error < 1e-14
    assert perturbation_report(reference_profile, pert=pert)["backward_error"] == pert.backward_error


def test_backward_error_stays_small_on_a_fine_grid():
    """||A y - b||/||b|| grows like 1/h**2 (1.1e-8 here); the backward error
    does not, so its 1e-8 bound holds at any --n."""
    pert = solve_perturbation(bps_profile(RadialGrid(10.0, 64000)))
    assert 0.0 < pert.backward_error < 1e-14


def test_zero_correction_has_no_slope_to_fit():
    """All-zero coefficients give an exactly zero response: no power law to
    fit (NaN, not an error), a zero backward error and a flat energy line."""
    profile = bps_profile(RadialGrid(25.0, 400))
    pert = solve_perturbation(profile, coeffs=dict.fromkeys(SECOND_LINE_COEFFS, 0.0))
    assert not pert.K1.any() and not pert.H1.any()
    rep = perturbation_report(profile, pert=pert)
    for key in ("origin_exponent_K", "origin_exponent_H", "tail_slope_K", "tail_slope_H"):
        assert np.isnan(rep[key])
    assert rep["backward_error"] == 0.0
    assert rep["linearity_r_squared"] == 1.0


@pytest.mark.parametrize("xi_max", [0.1, 1.0, 10.0, 25.0])
def test_energy_changes_match_the_whole_energy_differences(monkeypatch, xi_max):
    """Where the whole energies resolve the deformation, the fitted changes
    are their differences: completed + eps * S of the corrected profile
    minus the base energy. The changes are those passed to the linearity
    fit, the first polyfit the report makes."""
    profile = bps_profile(RadialGrid(xi_max, 400))
    pert = solve_perturbation(profile, coeffs=SECOND_LINE_COEFFS)
    fits, polyfit = [], np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda x, y, deg: fits.append((x, y)) or polyfit(x, y, deg))
    rep = perturbation_report(profile, pert=pert)
    x, changes = fits[0]
    epsilons = x * (rep["epsilon_max"] / x.max())  # the fit's power-of-two scaling undone
    e0 = energy_breakdown(profile).completed
    oracle = []
    for eps in epsilons:
        corrected = MonopoleProfile(profile.grid, profile.K + eps * pert.K1, profile.H + eps * pert.H1)
        oracle.append(energy_breakdown(corrected).completed
                      + eps * second_line_integral(corrected, pert.coeffs) - e0)
    assert rep["base_energy"] == e0
    assert np.abs(changes - np.array(oracle)).max() <= 1e-14 * abs(e0)


def test_unmoved_profile_has_the_correction_integral_as_slope():
    """At xi_max 1e-3 no corrected profile differs from the base one, so the
    energy change is exactly eps * S: the slope is S, not rounding noise."""
    profile = bps_profile(RadialGrid(1e-3, 400))
    pert = solve_perturbation(profile, coeffs=SECOND_LINE_COEFFS)
    rep = perturbation_report(profile, pert=pert)
    eps = rep["epsilon_max"]
    assert (profile.K + eps * pert.K1 == profile.K).all() and (profile.H + eps * pert.H1 == profile.H).all()
    S = second_line_integral(profile, SECOND_LINE_COEFFS)
    assert S == pytest.approx(3.7037e-23, rel=1e-4)
    assert rep["linear_slope"] == pytest.approx(S, rel=1e-12)
    assert rep["linearity_r_squared"] == 1.0


def test_perturbation_report_structure(reference_profile):
    rep = perturbation_report(reference_profile, solve_perturbation(reference_profile))
    assert rep["origin_exponent_K"] == pytest.approx(2.0, abs=0.1)
    assert rep["origin_exponent_H"] == pytest.approx(2.0, abs=0.1)
    assert rep["linearity_r_squared"] > 0.9999
    assert rep["base_energy"] == pytest.approx(FROZEN_COMPLETED, rel=1e-12)
    assert rep["epsilon_max"] * rep["max_response"] == pytest.approx(3e-3, rel=1e-10)
    # the outer tail of the correction grows instead of decaying; kept visible
    assert rep["tail_slope_K"] == pytest.approx(1.743366982348335, abs=1e-6)


def test_physical_energy_scaling(reference_profile):
    evb = 0.1
    breakdown = energy_breakdown(reference_profile)
    correction = second_line_integral(reference_profile, None)
    out = physical_energy(breakdown, correction, evb, v=1.0, beta=1.0, e=2.0, b=1.0)
    assert out["epsilon"] == pytest.approx(evb**4 / 30.0, rel=1e-15)
    assert out["prefactor"] == pytest.approx(np.pi**2, rel=1e-15)
    assert out["quantization_ok"]
    expected = out["prefactor"] * (out["E0_integral"] + out["epsilon"] * out["correction_integral"])
    assert out["total"] == pytest.approx(expected, rel=1e-12)
    odd = physical_energy(breakdown, correction, evb, v=1.0, beta=1.0, e=3.0, b=1.0)
    assert not odd["quantization_ok"]


def test_energy_scan_rows(reference_profile):
    rows = energy_scan([0.1, 0.2], xi_max=25.0, n=4000)
    assert len(rows) == 2
    assert rows[0]["epsilon"] == pytest.approx(1e-4 / 30.0, rel=1e-12)
    assert rows[1]["epsilon"] == pytest.approx(16e-4 / 30.0, rel=1e-12)
    assert rows[1]["dE_over_E0"] > rows[0]["dE_over_E0"]


def test_energy_scan_computes_each_integral_once(monkeypatch):
    """A scan integrates the energy and the correction of its profile once,
    not once per evb, and its rows equal physical_energy's bit for bit."""
    calls = []

    def count(name):
        real = getattr(monopole, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(monopole, name, counted)

    count("energy_breakdown")
    count("second_line_integral")
    evbs = [0.1, 0.2, 0.3]
    rows = energy_scan(evbs, xi_max=10.0, n=800)
    assert sorted(calls) == ["energy_breakdown", "second_line_integral"]
    profile = bps_profile(RadialGrid(10.0, 800))
    breakdown, correction = energy_breakdown(profile), second_line_integral(profile, None)
    assert rows == [physical_energy(breakdown, correction, evb, 1.0, 1.0, 2.0, 1.0) for evb in evbs]


def test_convergence_toward_continuum(reference_profile):
    """On the standard grid the error is the grid's: the order is the [0, h]
    sliver's 3, and the estimate leaves a remainder far below the error."""
    breakdown = energy_breakdown(reference_profile)
    out = convergence_check(breakdown)
    assert 2.5 < out["observed_order"] < 3.5
    error = breakdown.completed - 1.0
    assert abs(error) < 1e-6
    assert out["cutoff_remainder"] == error - out["discretization_estimate"]
    assert abs(out["cutoff_remainder"]) < 1e-2 * abs(error)


@pytest.mark.parametrize("xi_max, n", [(1e6, 400), (2150.0, 4000), (46.4, 16)])
def test_convergence_outside_the_asymptotic_range_is_nan(xi_max, n):
    """An order outside [2, 4] leaves no estimate and no remainder: the
    grids do not resolve the core, and the energy check fails."""
    breakdown = energy_breakdown(bps_profile(RadialGrid(xi_max, n)))
    out = convergence_check(breakdown)
    assert not 2.0 <= out["observed_order"] <= 4.0
    assert math.isnan(out["discretization_estimate"]) and math.isnan(out["cutoff_remainder"])
    assert abs(breakdown.completed - 1.0) > 1e-4


def test_convergence_estimate_below_the_error_rounding_stands():
    """At a tiny cutoff the rounded differences give an order of 1.3, but
    the estimate is lost in the rounding of the error and the remainder is
    the whole error, the cutoff's: both stay."""
    breakdown = energy_breakdown(bps_profile(RadialGrid(1e-3, 4000)))
    out = convergence_check(breakdown)
    assert not 2.0 <= out["observed_order"] <= 4.0
    assert abs(out["discretization_estimate"]) < 1e-18
    assert out["cutoff_remainder"] == breakdown.completed - 1.0


@pytest.mark.parametrize("n, grids", [(16, [32, 64]), (63, [126, 252]), (64, [32, 16])])
def test_convergence_check_grids_and_nominal_order(monkeypatch, n, grids):
    """The other grids are n/2 and n/4, or 2n and 4n below 64 nodes; raw
    integrals that agree on every grid leave the order undefined, and the
    nominal 3 stands in with a zero estimate."""
    breakdown = energy_breakdown(bps_profile(RadialGrid(25.0, n)))
    taken = []

    def same(profile):
        taken.append(profile.grid.n)
        return breakdown

    monkeypatch.setattr(monopole, "energy_breakdown", same)
    out = convergence_check(breakdown)
    assert taken == grids
    assert out == {"discretization_estimate": 0.0, "observed_order": 3.0,
                   "cutoff_remainder": breakdown.completed - 1.0}


def test_bump_shapes():
    grid = RadialGrid(10.0, 200)
    s = sine_bump(grid, 2, 0.3)
    assert abs(s[-1]) < 1e-12
    g = gaussian_bump(grid, 5.0, 0.8, 0.3)
    assert np.max(np.abs(g)) == pytest.approx(0.3, rel=1e-2)
    assert abs(g[0]) < 1e-6
    assert abs(g[-1]) < 1e-6


def test_profile_requires_matching_lengths():
    grid = RadialGrid(10.0, 100)
    with pytest.raises(ValueError):
        MonopoleProfile(grid, np.zeros(50), np.zeros(100))
