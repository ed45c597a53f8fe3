import numpy as np
import pytest
from scipy.integrate import simpson

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
    fd2,
    functional_gradient,
    gaussian_bump,
    linearized_forcing,
    perturb_profile,
    perturbation_report,
    physical_energy,
    second_line_integral,
    sine_bump,
    solve_perturbation,
    tail_estimate,
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
    assert second_line_integral(reference_profile) == pytest.approx(
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
        u = monopole._random_direction(grid, rng)
        v = monopole._random_direction(grid, rng)
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
    assert pert.diagnostic_n == 400


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
    u, v = monopole._random_direction(grid, rng), monopole._random_direction(grid, rng)
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
    correction = second_line_integral(reference_profile)
    out = physical_energy(breakdown, correction, evb, v=1.0, beta=1.0, e=2.0, b=1.0)
    assert out["epsilon"] == pytest.approx(evb**4 / 30.0, rel=1e-15)
    assert out["prefactor"] == pytest.approx(np.pi**2, rel=1e-15)
    assert out["quantization_ok"]
    expected = out["prefactor"] * (out["E0_integral"] + out["epsilon"] * out["correction_integral"])
    assert out["total"] == pytest.approx(expected, rel=1e-12)
    odd = physical_energy(breakdown, correction, evb, e=3.0)
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
    breakdown, correction = energy_breakdown(profile), second_line_integral(profile)
    assert rows == [physical_energy(breakdown, correction, evb) for evb in evbs]


def test_convergence_toward_continuum():
    out = convergence_check(xi_max=25.0, n=4000)
    assert 2.5 < out["observed_order"] < 3.5
    assert abs(out["completed"]["4000"] - 1.0) < 1e-6


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
