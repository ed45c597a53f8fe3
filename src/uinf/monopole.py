"""Radial profile workbench for the hedgehog soliton on a half line.

The closed-form profile pair solves the first-order system

    xi K' = -K H,        xi H' = H + 1 - K**2,

and the module provides the energy bookkeeping around it: the quadratic
energy density, its rearrangement into a sum of squares plus a total
derivative, an explicit cutoff with the analytic tail of the continuation
K = 0, H = xi - 1, a quartic correction density with overridable
coefficients, and the linear response of the profile to that correction.

Everything runs on a uniform grid over [h, Xi] with h = Xi/n, fourth-order
finite differences for derivatives, and Simpson quadrature for integrals.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RadialGrid",
    "MonopoleProfile",
    "Perturbation",
    "EnergyBreakdown",
    "SECOND_LINE_COEFFS",
    "fd1",
    "fd2",
    "bps_profile",
    "perturb_profile",
    "sine_bump",
    "bogomolnyi_residuals",
    "functional_gradient",
    "energy_density",
    "squared_form_density",
    "boundary_term",
    "energy_breakdown",
    "second_line_density",
    "second_line_integral",
    "cutoff_growth",
    "gateaux_difference",
    "variational_check",
    "linearized_forcing",
    "solve_perturbation",
    "origin_exponent",
    "tail_slope",
    "perturbation_report",
    "physical_energy",
    "energy_scan",
    "convergence_check",
]


# Default coefficients of the quartic correction density.  The five basis
# monomials are, with u = 1 - K,
#
#   h2_kprime2     H**2 K'**2
#   dh2_1mk2       (H' - H/xi)**2 u**2
#   h2_1mk2        H**2 u**2
#   kprime2_1mk2   K'**2 u**2
#   xi2_1mk4       xi**2 u**4
#
# The h2_1mk2 and xi2_1mk4 terms grow like xi**2 on the closed-form profile,
# so the integral scales as (coeff sum)/3 * Xi**3 with the cutoff.  Nothing
# here assumes convergence; cutoff_growth() measures the growth and every
# correction value is reported together with its cutoff.
SECOND_LINE_COEFFS = {
    "h2_kprime2": 15.0,
    "dh2_1mk2": 10.0,
    "h2_1mk2": 18.0,
    "kprime2_1mk2": 14.0,
    "xi2_1mk4": 64.0,
}


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes xi_i = i*h for i = 1..n, with h = xi_max/n.

    The origin itself is excluded; the first node sits one spacing away so
    the 1/xi**2 factors in the densities stay finite.
    """

    xi_max: float
    n: int

    def __post_init__(self):
        if not self.xi_max > 0:
            raise ValueError("cutoff must be positive")
        if self.n < 16:
            raise ValueError("need at least 16 radial nodes")

    @property
    def h(self):
        return self.xi_max / self.n

    @cached_property
    def xi(self):
        return np.linspace(self.h, self.xi_max, self.n)


@dataclass
class MonopoleProfile:
    grid: RadialGrid
    K: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        if len(self.K) != self.grid.n or len(self.H) != self.grid.n:
            raise ValueError("profile arrays must match the grid length")

    def derivatives(self):
        h = self.grid.h
        return fd1(self.K, h), fd1(self.H, h)


@dataclass
class Perturbation:
    """First-order response (K1, H1) to the quartic correction."""

    grid: RadialGrid
    K1: np.ndarray
    H1: np.ndarray
    coeffs: dict
    min_singular_value: float
    diagnostic_n: int
    backward_error: float


@dataclass
class EnergyBreakdown:
    raw_integral: float
    squared_form_integral: float
    boundary_term: float
    tail: float
    completed: float
    rearrangement_gap: float
    xi_max: float
    n: int


def _simpson(y, x):
    """Composite Simpson integral of y at strictly increasing nodes x, by the
    arithmetic of scipy.integrate.simpson(y, x=x) in its order: irregular-node
    weights over interval pairs, a trapezoid for two nodes, and for an even
    count Cartwright's last-interval correction (J. Math. Sci. Math. Educ.
    12(2), 2017)."""
    n, d = len(y), np.diff(x)
    if n == 2:
        return 0.5 * d[-1] * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = d[0:stop:2], d[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        # 0-d arrays, as in scipy: numpy's array power can round unlike its scalar one
        a, b = d[-2, ...], d[-1, ...]
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def fd1(values, h):
    """Fourth-order first derivative on a uniform grid.

    Centered five-point stencil in the interior, one-sided five-point rows
    at each end.
    """
    y = np.asarray(values, dtype=float)
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    out[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    out[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    out[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    out[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    return out


def fd2(values, h):
    """Fourth-order second derivative, six-point one-sided rows at the ends."""
    y = np.asarray(values, dtype=float)
    out = np.empty_like(y)
    hh = 12.0 * h * h
    out[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]) / hh
    out[0] = (45.0 * y[0] - 154.0 * y[1] + 214.0 * y[2] - 156.0 * y[3] + 61.0 * y[4] - 10.0 * y[5]) / hh
    out[1] = (10.0 * y[0] - 15.0 * y[1] - 4.0 * y[2] + 14.0 * y[3] - 6.0 * y[4] + y[5]) / hh
    out[-1] = (45.0 * y[-1] - 154.0 * y[-2] + 214.0 * y[-3] - 156.0 * y[-4] + 61.0 * y[-5] - 10.0 * y[-6]) / hh
    out[-2] = (10.0 * y[-1] - 15.0 * y[-2] - 4.0 * y[-3] + 14.0 * y[-4] - 6.0 * y[-5] + y[-6]) / hh
    return out


def bps_profile(grid):
    """Closed-form solution K = xi/sinh(xi), H = xi*coth(xi) - 1.

    Written through expm1 so both ends of the grid evaluate stably: near the
    origin 1 - e^{-2 xi} loses digits in naive form, at large xi sinh
    overflows.
    """
    xi = grid.xi
    em = np.exp(-xi)
    den = -np.expm1(-2.0 * xi)
    K = 2.0 * xi * em / den
    H = xi * (2.0 + np.expm1(-2.0 * xi)) / den - 1.0
    return MonopoleProfile(grid=grid, K=K, H=H)


def sine_bump(grid, j, amplitude):
    """Mode amplitude*sin(j*pi*(xi - h)/(xi_max - h)); vanishes at both ends."""
    xi = grid.xi
    return amplitude * np.sin(j * np.pi * (xi - xi[0]) / (xi[-1] - xi[0]))


def gaussian_bump(grid, center, width, amplitude):
    """Localized packet amplitude*exp(-(xi-center)**2/(2 width**2)).

    With the center a comfortable number of widths inside the domain the
    packet and all its derivatives are exponentially small at both ends,
    which is what the gradient pairing needs.
    """
    xi = grid.xi
    return amplitude * np.exp(-((xi - center) ** 2) / (2.0 * width ** 2))


def perturb_profile(profile, rng, amplitude=0.05, modes=6):
    """Add random low-mode bumps to both profile functions.

    The bumps vanish at the first and last node, so the boundary term of the
    energy rearrangement is untouched.
    """
    grid = profile.grid
    dK = np.zeros_like(profile.K)
    dH = np.zeros_like(profile.H)
    for j in range(1, modes + 1):
        dK += sine_bump(grid, j, amplitude * rng.standard_normal() / j)
        dH += sine_bump(grid, j, amplitude * rng.standard_normal() / j)
    return MonopoleProfile(grid=grid, K=profile.K + dK, H=profile.H + dH)


def bogomolnyi_residuals(profile):
    """Residual arrays of the first-order system, (xi K' + K H, xi H' - H - 1 + K**2)."""
    xi = profile.grid.xi
    Kp, Hp = profile.derivatives()
    r1 = xi * Kp + profile.K * profile.H
    r2 = xi * Hp - profile.H - 1.0 + profile.K ** 2
    return r1, r2


def energy_density(profile):
    """Quadratic energy density K'**2 + K**2 H**2/xi**2 + (H' - H/xi)**2/2 + (1-K**2)**2/(2 xi**2)."""
    xi = profile.grid.xi
    K, H = profile.K, profile.H
    Kp, Hp = profile.derivatives()
    return (
        Kp ** 2
        + K ** 2 * H ** 2 / xi ** 2
        + 0.5 * (Hp - H / xi) ** 2
        + (1.0 - K ** 2) ** 2 / (2.0 * xi ** 2)
    )


def squared_form_density(profile):
    """The same density minus the total derivative d/dxi[H (1-K**2)/xi].

    Algebraically equal to (K' + K H/xi)**2 + ((H' - H/xi) - (1-K**2)/xi)**2/2,
    which vanishes exactly on the closed-form profile.
    """
    xi = profile.grid.xi
    K, H = profile.K, profile.H
    Kp, Hp = profile.derivatives()
    return (Kp + K * H / xi) ** 2 + 0.5 * ((Hp - H / xi) - (1.0 - K ** 2) / xi) ** 2


def boundary_term(profile):
    """[H (1 - K**2)/xi] evaluated between the last and the first node."""
    xi = profile.grid.xi
    val = profile.H * (1.0 - profile.K ** 2) / xi
    return val[-1] - val[0]


def tail_estimate(xi_max):
    """Energy carried by the continuation K = 0, H = xi - 1 beyond the cutoff.

    Its density is exactly 1/xi**2, so the missing piece integrates to
    1/xi_max.
    """
    return 1.0 / xi_max


def energy_breakdown(profile):
    xi = profile.grid.xi
    raw = float(_simpson(energy_density(profile), xi))
    squared = float(_simpson(squared_form_density(profile), xi))
    bnd = float(boundary_term(profile))
    tail = tail_estimate(profile.grid.xi_max)
    return EnergyBreakdown(
        raw_integral=raw,
        squared_form_integral=squared,
        boundary_term=bnd,
        tail=tail,
        completed=raw + tail,
        rearrangement_gap=raw - (squared + bnd),
        xi_max=profile.grid.xi_max,
        n=profile.grid.n,
    )


def functional_gradient(profile):
    """Pointwise variational derivatives of the quadratic energy.

    dE/dK = -2 K'' + 2 K H**2/xi**2 + 2 K (K**2 - 1)/xi**2
    dE/dH = -H'' + 2 K**2 H/xi**2

    Boundary contributions of the integration by parts are dropped; pair
    these only against directions that vanish at both ends.
    """
    xi = profile.grid.xi
    h = profile.grid.h
    K, H = profile.K, profile.H
    gK = -2.0 * fd2(K, h) + 2.0 * K * H ** 2 / xi ** 2 + 2.0 * K * (K ** 2 - 1.0) / xi ** 2
    gH = -fd2(H, h) + 2.0 * K ** 2 * H / xi ** 2
    return gK, gH


def _energy_of_arrays(grid, K, H):
    return float(_simpson(energy_density(MonopoleProfile(grid=grid, K=K, H=H)), grid.xi))


def gateaux_difference(profile, direction_K, direction_H):
    """Central-difference directional derivative of the raw energy integral."""
    grid = profile.grid
    step = 1e-5
    plus = _energy_of_arrays(grid, profile.K + step * direction_K, profile.H + step * direction_H)
    minus = _energy_of_arrays(grid, profile.K - step * direction_K, profile.H - step * direction_H)
    return (plus - minus) / (2.0 * step)


def _random_direction(grid, rng):
    lo = 0.28 * grid.xi_max
    hi = 0.68 * grid.xi_max
    width_scale = grid.xi_max / 25.0
    d = np.zeros_like(grid.xi)
    for _ in range(3):
        center = rng.uniform(lo, hi)
        width = rng.uniform(0.6, 1.2) * width_scale
        d += gaussian_bump(grid, center, width, rng.standard_normal())
    return d / np.abs(d).max()


def variational_check(profile, rng=None, pairs=100):
    """Compare the analytic gradient against difference quotients.

    Each trial deforms the base profile with random bumps (so the gradient
    is not sitting at a critical point), draws a random direction pair, and
    compares the central difference of the energy with the paired integral
    of the analytic gradient.

    The directions are sums of gaussian packets localized well inside the
    domain, scaled to unit sup norm.  Exponentially small endpoint values
    make the integration by parts behind the analytic gradient exact in
    practice, and keeping the packets away from the origin matters: the
    1/xi**2 factors in the density give difference stencils and quadrature
    near the first node an O(h) bias that would otherwise dominate the
    comparison.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    xi = profile.grid.xi
    worst = 0.0
    total = 0.0
    for _ in range(pairs):
        base = perturb_profile(profile, rng, amplitude=0.2, modes=8)
        u = _random_direction(profile.grid, rng)
        v = _random_direction(profile.grid, rng)
        fd = gateaux_difference(base, u, v)
        gK, gH = functional_gradient(base)
        analytic = float(_simpson(gK * u + gH * v, xi))
        rel = abs(fd - analytic) / max(abs(analytic), 1.0)
        worst = max(worst, rel)
        total += rel
    return {"pairs": pairs, "max_rel_error": worst, "mean_rel_error": total / pairs}


def _filled_coeffs(coeffs):
    table = dict(SECOND_LINE_COEFFS)
    if coeffs:
        unknown = set(coeffs) - set(table)
        if unknown:
            raise ValueError("unknown correction coefficients: %s" % sorted(unknown))
        table.update(coeffs)
    return table


def second_line_density(profile, coeffs=None):
    """Quartic correction density; every term is a square times a coefficient."""
    c = _filled_coeffs(coeffs)
    xi = profile.grid.xi
    K, H = profile.K, profile.H
    Kp, Hp = profile.derivatives()
    u = 1.0 - K
    return (
        c["h2_kprime2"] * H ** 2 * Kp ** 2
        + c["dh2_1mk2"] * (Hp - H / xi) ** 2 * u ** 2
        + c["h2_1mk2"] * H ** 2 * u ** 2
        + c["kprime2_1mk2"] * Kp ** 2 * u ** 2
        + c["xi2_1mk4"] * xi ** 2 * u ** 4
    )


def second_line_integral(profile, coeffs=None):
    return float(_simpson(second_line_density(profile, coeffs), profile.grid.xi))


def cutoff_growth(profile):
    """Measure how the correction integral grows with the cutoff.

    Integrates the density over nested prefixes [h, f*xi_max] of the grid and
    fits the log-log slope.  On the closed-form profile with the published
    coefficients the growth is cubic: the two densities that survive at
    large xi approach (c_h2_1mk2 + c_xi2_1mk4) xi**2.
    """
    xi = profile.grid.xi
    dens = second_line_density(profile)
    cuts, values = [], []
    for f in (0.4, 0.55, 0.7, 0.85, 1.0):
        idx = int(round(f * (profile.grid.n - 1)))
        idx = max(idx, 8)
        cuts.append(xi[idx])
        values.append(float(_simpson(dens[: idx + 1], xi[: idx + 1])))
    cuts = np.array(cuts)
    values = np.array(values)
    slope = float(np.polyfit(np.log(cuts), np.log(values), 1)[0])
    return {
        "cutoffs": cuts.tolist(),
        "integrals": values.tolist(),
        "log_slope": slope,
        "cubic_coefficient": float(values[-1] / cuts[-1] ** 3),
    }


def linearized_forcing(profile, coeffs=None):
    """Variational derivatives of the correction integral at the base profile.

    With u = 1 - K and the five-term density above,

      Phi_K = -d/dxi[2 a H**2 K' + 2 d K' u**2] - 2 b (H'-H/xi)**2 u
              - 2 c H**2 u - 2 d K'**2 u - 4 e xi**2 u**3
      Phi_H = -d/dxi[2 b (H'-H/xi) u**2] - (2 b/xi)(H'-H/xi) u**2
              + 2 a H K'**2 + 2 c H u**2

    where (a, b, c, d, e) are the table entries in the order documented at
    SECOND_LINE_COEFFS.  The outer d/dxi is taken numerically.
    """
    c = _filled_coeffs(coeffs)
    a, b = c["h2_kprime2"], c["dh2_1mk2"]
    cc, d, e = c["h2_1mk2"], c["kprime2_1mk2"], c["xi2_1mk4"]
    xi = profile.grid.xi
    h = profile.grid.h
    K, H = profile.K, profile.H
    Kp, Hp = profile.derivatives()
    u = 1.0 - K
    w = Hp - H / xi
    phi_K = (
        -fd1(2.0 * a * H ** 2 * Kp + 2.0 * d * Kp * u ** 2, h)
        - 2.0 * b * w ** 2 * u
        - 2.0 * cc * H ** 2 * u
        - 2.0 * d * Kp ** 2 * u
        - 4.0 * e * xi ** 2 * u ** 3
    )
    phi_H = (
        -fd1(2.0 * b * w * u ** 2, h)
        - (2.0 * b / xi) * w * u ** 2
        + 2.0 * a * H * Kp ** 2
        + 2.0 * cc * H * u ** 2
    )
    return phi_K, phi_H


def _linear_operator(profile):
    """Sparse second-order discretization of the linearized critical-point system.

    Unknowns are interleaved, y[2i] = K1(xi_i), y[2i+1] = H1(xi_i).  Interior
    rows discretize

      -2 K1'' + [2(3 K**2 - 1) + 2 H**2] K1/xi**2 + 4 K H H1/xi**2 = rhs_K
      -  H1'' + 2 K**2 H1/xi**2 + 4 K H K1/xi**2                  = rhs_H

    around the given base profile.  The first node carries regularity rows
    xi y' - 2 y = 0 for both functions (the bounded branch grows like xi**2
    there); the last node carries K1' + K1 = 0 and H1' = 0.
    """
    from scipy.sparse import coo_matrix
    n, h, xi = profile.grid.n, profile.grid.h, profile.grid.xi
    K, H = profile.K, profile.H
    cK = (2.0 * (3.0 * K ** 2 - 1.0) + 2.0 * H ** 2) / xi ** 2
    cH = 2.0 * K ** 2 / xi ** 2
    cX = 4.0 * K * H / xi ** 2
    inv_h2 = 1.0 / (h * h)
    i = np.arange(1, n - 1)
    k, m = 2 * i, 2 * i + 1  # the K1 and H1 rows of interior node i
    rows = [k, k, k, k, m, m, m, m]
    cols = [k - 2, k, k + 2, m, m - 2, m, m + 2, k]
    off = np.full(n - 2, -inv_h2)
    vals = [2.0 * off, 4.0 * inv_h2 + cK[1:-1], 2.0 * off, cX[1:-1],
            off, 2.0 * inv_h2 + cH[1:-1], off, cX[1:-1]]
    two_h = 2.0 * h
    # regularity rows at the first node: xi y' - 2 y = 0, forward 3-point y'
    reg = [xi[0] * (-3.0 / two_h) - 2.0, xi[0] * (4.0 / two_h), xi[0] * (-1.0 / two_h)]
    # cutoff rows: K1' + K1 = 0 and H1' = 0, backward 3-point y'
    back = [3.0 / two_h, -4.0 / two_h, 1.0 / two_h]
    last_K, last_H = 2 * (n - 1), 2 * (n - 1) + 1
    rows.append([0, 0, 0, 1, 1, 1] + [last_K] * 3 + [last_H] * 3)
    cols.append([0, 2, 4, 1, 3, 5, last_K, last_K - 2, last_K - 4, last_H, last_H - 2, last_H - 4])
    vals.append(reg + reg + [back[0] + 1.0] + back[1:] + back)
    A = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(2 * n, 2 * n)).tocsr()
    A.eliminate_zeros()  # couplings that underflow far out (K = 0) are not stored
    return A


def spsolve(A, b):
    """scipy.sparse.linalg.spsolve, imported on call: it is all the package
    needs of scipy. A module-level name, so a caller can wrap the solve
    (bench/tracer.py times it here)."""
    from scipy.sparse.linalg import spsolve as solve
    return solve(A, b)


# radial nodes of the coarse companion grid behind the singular value diagnostic
_DIAGNOSTIC_N = 400


def solve_perturbation(profile, coeffs=None):
    """First-order profile response to switching on the correction density.

    Solves the linearized system with right-hand side minus the correction
    forcings and reports the normwise backward error of the solve,
    ||A y - b|| / (||A|| ||y|| + ||b||) in the max norm, which stays near
    machine precision for a stable solve at any grid size (the plain
    relative residual grows like 1/h**2).  A dense singular value
    decomposition of the same operator on a coarse companion grid reports
    the distance from singularity; the translation-like direction (K', H')
    of the base profile satisfies the cutoff rows but not the regularity
    rows, so the operator is invertible.
    """
    c = _filled_coeffs(coeffs)
    A = _linear_operator(profile)
    phi_K, phi_H = linearized_forcing(profile, c)
    n = profile.grid.n
    rhs = np.zeros(2 * n)
    rhs[2:-2:2] = -phi_K[1:-1]
    rhs[3:-2:2] = -phi_H[1:-1]
    y = spsolve(A, rhs)
    coarse = RadialGrid(profile.grid.xi_max, _DIAGNOSTIC_N)
    min_sv = float(np.linalg.svd(_linear_operator(bps_profile(coarse)).toarray(), compute_uv=False)[-1])
    scale = abs(A).sum(axis=1).max() * np.abs(y).max() + np.abs(rhs).max()
    return Perturbation(
        grid=profile.grid,
        K1=y[0::2],
        H1=y[1::2],
        coeffs=c,
        min_singular_value=min_sv,
        diagnostic_n=_DIAGNOSTIC_N,
        backward_error=float(np.abs(A @ y - rhs).max() / scale) if scale else 0.0,
    )


def _log_slope(xi, y, lo, hi):
    # a broken (non-finite) or an all-zero response has no slope to fit
    mask = (xi >= lo) & (xi <= hi) & (np.abs(y) > 0)
    if not np.isfinite(y).all() or mask.sum() < 4:
        return float("nan")
    return float(np.polyfit(np.log(xi[mask]), np.log(np.abs(y[mask])), 1)[0])


def origin_exponent(grid, y):
    """Power-law exponent of y near the first grid node.

    Fits log|y| against log(xi) over an index window just inside the
    boundary row.
    """
    xi = grid.xi
    return _log_slope(xi, y, xi[1], xi[min(40, grid.n - 1)])


def tail_slope(grid, y):
    """Log-log slope of |y| over the window [0.6, 0.92]*xi_max."""
    return _log_slope(grid.xi, y, 0.6 * grid.xi_max, 0.92 * grid.xi_max)


def perturbation_report(profile, pert):
    """Summarize the solved response pert of the profile.

    Reports the origin exponents and tail slopes of both response functions,
    the linearity of the corrected energy in the deformation parameter, the
    backward error of the solve, and the coarse-grid singularity
    diagnostic.
    """
    response = max(np.abs(pert.K1).max(), np.abs(pert.H1).max(), 1.0)
    # keep the first-order displacement below ~3e-3 in sup norm so the fit
    # probes the linear-response window of the deformation
    epsilons = np.linspace(0.1, 1.0, 7) * 3e-3 / response
    grid = profile.grid
    base = energy_breakdown(profile)
    energies = []
    for eps in epsilons:
        corrected = MonopoleProfile(grid=grid, K=profile.K + eps * pert.K1, H=profile.H + eps * pert.H1)
        total = (
            energy_breakdown(corrected).completed
            + eps * second_line_integral(corrected, pert.coeffs)
        )
        energies.append(total)
    energies = np.array(energies)
    finite = np.isfinite(energies).all()  # the LAPACK fit fails on non-finite data
    slope, intercept = np.polyfit(epsilons, energies, 1) if finite else (np.nan, np.nan)
    fitted = slope * epsilons + intercept
    ss_res = float(np.sum((energies - fitted) ** 2))
    ss_tot = float(np.sum((energies - energies.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot != 0 else 1.0  # NaN stays NaN
    return {
        "origin_exponent_K": origin_exponent(grid, pert.K1),
        "origin_exponent_H": origin_exponent(grid, pert.H1),
        "tail_slope_K": tail_slope(grid, pert.K1),
        "tail_slope_H": tail_slope(grid, pert.H1),
        "linearity_r_squared": r_squared,
        "linear_slope": float(slope),
        "epsilon_max": float(epsilons.max()),
        "max_response": float(response),
        "base_energy": base.completed,
        "backward_error": pert.backward_error,
        "min_singular_value": pert.min_singular_value,
        "diagnostic_n": pert.diagnostic_n,
        "cutoff": grid.xi_max,
        "n": grid.n,
    }


def physical_energy(breakdown, correction, evb, v=1.0, beta=1.0, e=2.0, b=1.0):
    """Dimensionful energy estimate at deformation strength set by evb, from
    a profile's energy breakdown and its correction integral.

    The deformation parameter is epsilon = (evb)**4/30, computed from the
    evb argument alone; the overall prefactor 8 pi**2 v beta/(e**3 b**2)
    comes from the remaining parameters.  The two are reported side by side
    without any consistency requirement, since scans vary evb at fixed
    parameters.  The integer check on 2/e is a reported flag, never an
    error.
    """
    completed = breakdown.completed
    epsilon = evb ** 4 / 30.0
    prefactor = 8.0 * np.pi ** 2 * v * beta / (e ** 3 * b ** 2)
    return {
        "evb": evb,
        "epsilon": epsilon,
        "E0_integral": completed,
        "correction_integral": correction,
        "dE_over_E0": epsilon * correction / completed,
        "cutoff": breakdown.xi_max,
        "prefactor": prefactor,
        "total": prefactor * (completed + epsilon * correction),
        "quantization_ok": abs(2.0 / e - round(2.0 / e)) < 1e-12,
    }


def energy_scan(evb_list, xi_max=25.0, n=4000, v=1.0, beta=1.0, e=2.0, b=1.0, coeffs=None):
    """physical_energy of one closed-form profile at each evb; the two
    integrals do not depend on evb and are computed once."""
    profile = bps_profile(RadialGrid(xi_max, n))
    breakdown = energy_breakdown(profile)
    correction = second_line_integral(profile, coeffs)
    return [physical_energy(breakdown, correction, evb, v, beta, e, b) for evb in evb_list]


def convergence_check(xi_max=25.0, n=4000):
    """Completed energy at n, n/2 and n/4 nodes, with the observed order.

    The dominant error is the missing [0, h] sliver of the integral, which
    shrinks like h**3, so the observed order sits near 3.
    """
    values = {}
    for m in (n, n // 2, n // 4):
        values[m] = energy_breakdown(bps_profile(RadialGrid(xi_max, m))).completed
    e_fine = values[n]
    e_half = values[n // 2]
    e_quarter = values[n // 4]
    order = float(np.log2(abs(e_quarter - e_half) / abs(e_half - e_fine)))
    return {
        "completed": {str(m): values[m] for m in values},
        "difference_fine": abs(e_half - e_fine),
        "observed_order": order,
    }
