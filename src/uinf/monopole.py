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
import math

import numpy as np

__all__ = [
    "RadialGrid",
    "MonopoleProfile",
    "Perturbation",
    "EnergyBreakdown",
    "SECOND_LINE_COEFFS",
    "fd1",
    "bps_profile",
    "bogomolnyi_residuals",
    "energy_density",
    "energy_breakdown",
    "second_line_density",
    "second_line_integral",
    "cutoff_growth",
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


@dataclass(frozen=True)
class MonopoleProfile:
    """Profile pair (K, H); frozen, so its cached derivatives cannot go stale."""

    grid: RadialGrid
    K: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        if len(self.K) != self.grid.n or len(self.H) != self.grid.n:
            raise ValueError("profile arrays must match the grid length")

    @cached_property
    def derivatives(self):
        """(K', H') by fd1, taken once per profile."""
        h = self.grid.h
        return fd1(self.K, h), fd1(self.H, h)


@dataclass
class Perturbation:
    """First-order response (K1, H1) to the quartic correction."""

    K1: np.ndarray
    H1: np.ndarray
    coeffs: dict
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


def _simpson(y, h):
    """Composite Simpson integral of y at uniform spacing h: a trapezoid for
    two nodes, and for an even count the rule on the first n - 1 nodes plus
    the last interval's weights h/12 (5, 8, -1) (Cartwright, J. Math. Sci.
    Math. Educ. 12(2), 2017), as scipy.integrate.simpson takes them."""
    n = len(y)
    if n == 2:
        return 0.5 * h * (y[0] + y[1])
    m = n - 1 + n % 2
    result = h / 3.0 * np.sum(y[0:m - 2:2] + 4.0 * y[1:m - 1:2] + y[2:m:2])
    if n % 2 == 0:
        result += h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
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


def bogomolnyi_residuals(profile):
    """Residual arrays of the first-order system, (xi K' + K H, xi H' - H - 1 + K**2)."""
    xi = profile.grid.xi
    Kp, Hp = profile.derivatives
    r1 = xi * Kp + profile.K * profile.H
    r2 = xi * Hp - profile.H - 1.0 + profile.K ** 2
    return r1, r2


class _Jet:
    """A polynomial sum_k eps**k rows[k] whose coefficient rows are arrays
    or numbers, with products that drop the powers above degree: Taylor
    arithmetic (Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM
    2008, ch. 13). Arrays and numbers are constants. Row 0 of a result is the
    plain operation on the rows 0, so it rounds as the plain arithmetic does."""

    __array_ufunc__ = None  # an ndarray on the left defers to the reflected operator

    def __init__(self, rows, degree):
        self.rows, self.degree = list(rows), degree

    def __add__(self, other):
        a, b = self.rows, other.rows if isinstance(other, _Jet) else [other]
        return _Jet([x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):], self.degree)

    def __mul__(self, other):
        a, b = self.rows, other.rows if isinstance(other, _Jet) else [other]
        rows = []
        for k in range(min(len(a) + len(b) - 2, self.degree) + 1):
            lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
            rows.append(a[lo] * b[k - lo])
            for i in range(lo + 1, hi + 1):
                rows[k] += a[i] * b[k - i]
        return _Jet(rows, self.degree)

    def __pow__(self, p):  # p >= 1; numpy's power need not round as a product does
        out = self
        for _ in range(p - 1):
            out = out * self
        return _Jet([self.rows[0] ** p] + out.rows[1:], self.degree)

    def __truediv__(self, other):
        return _Jet([r / other for r in self.rows], self.degree)

    __radd__, __rmul__ = __add__, __mul__
    __sub__ = lambda self, other: self + other * -1.0  # x - y rounds as x + (-1.0 * y)
    __rsub__ = lambda self, other: self * -1.0 + other


class _Dirs(tuple):
    """Row 1 of a degree-1 _Jet in several directions at once (vector forward
    mode, Griewank and Walther ch. 13): entry d is the row a jet seeded in
    direction d alone would hold, or None where that jet would be a plain
    constant. Each entry comes from the same operation as the one-direction
    row, so it rounds the same way (x * y and y * x round alike), and an
    absent entry is never multiplied. Degree 1 multiplies a row 1 only by a
    row 0, never by another row 1."""

    __array_ufunc__ = None  # an ndarray on the left defers to the reflected operator

    def __add__(self, other):
        return _Dirs(x if y is None else y if x is None else x + y for x, y in zip(self, other))

    def __mul__(self, other):
        return _Dirs(None if x is None else x * other for x in self)

    def __truediv__(self, other):
        return _Dirs(None if x is None else x / other for x in self)

    __rmul__ = __mul__


# radial nodes per block of the jet passes: their few dozen live rows stay in cache
_BLOCK = 8192


def _in_blocks(n, rows_of):
    """The groups of rows that rows_of(s) returns for each slice s of at most
    _BLOCK of the n nodes, each group joined into one (rows, n) array."""
    out = None
    for start in range(0, n, _BLOCK):
        s = slice(start, start + _BLOCK)
        groups = rows_of(s)
        if out is None:
            out = [np.empty((len(rows), n)) for rows in groups]
        for block, rows in zip(out, groups):
            for row, values in zip(block, rows):
                row[s] = values
    return out


def _energy_density_at(xi, K, H, Kp, Hp):
    K2, xi2 = K ** 2, xi ** 2
    return Kp ** 2 + K2 * H ** 2 / xi2 + 0.5 * (Hp - H / xi) ** 2 + (1.0 - K2) ** 2 / (2.0 * xi2)


def energy_density(profile):
    """Quadratic energy density K'**2 + K**2 H**2/xi**2 + (H' - H/xi)**2/2 + (1-K**2)**2/(2 xi**2)."""
    return _energy_density_at(profile.grid.xi, profile.K, profile.H, *profile.derivatives)


def tail_estimate(xi_max):
    """Energy carried by the continuation K = 0, H = xi - 1 beyond the cutoff.

    Its density is exactly 1/xi**2, so the missing piece integrates to
    1/xi_max.
    """
    return 1.0 / xi_max


def _raw_energy(profile):
    return float(_simpson(energy_density(profile), profile.grid.h))


def energy_breakdown(profile):
    """Raw energy integral, its squared form and boundary term, and the tail.

    The density is the Bogomolnyi residuals squared plus a total derivative,
    (r1**2 + r2**2/2)/xi**2 + d/dxi[H (1 - K**2)/xi]: the squared form
    vanishes on the closed-form profile, and the boundary term is the bracket
    between the last and the first node. Both read the profile's derivatives,
    taken once."""
    xi = profile.grid.xi
    r1, r2 = bogomolnyi_residuals(profile)
    raw = _raw_energy(profile)
    squared = float(_simpson((r1 ** 2 + 0.5 * r2 ** 2) / xi ** 2, profile.grid.h))
    edge = profile.H * (1.0 - profile.K ** 2) / xi
    bnd = float(edge[-1] - edge[0])
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
    return _second_line_density_at(profile.grid.xi, profile.K, profile.H, *profile.derivatives,
                                   _filled_coeffs(coeffs))


def _second_line_density_at(xi, K, H, Kp, Hp, c):
    u = 1.0 - K
    H2, Kp2, u2 = H ** 2, Kp ** 2, u ** 2
    return (
        c["h2_kprime2"] * H2 * Kp2
        + c["dh2_1mk2"] * (Hp - H / xi) ** 2 * u2
        + c["h2_1mk2"] * H2 * u2
        + c["kprime2_1mk2"] * Kp2 * u2
        + c["xi2_1mk4"] * xi ** 2 * u ** 4
    )


def second_line_integral(profile, coeffs):
    return float(_simpson(second_line_density(profile, coeffs), profile.grid.h))


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
        values.append(float(_simpson(dens[: idx + 1], profile.grid.h)))
    cuts = np.array(cuts)
    values = np.array(values)
    slope = float(np.polyfit(np.log(cuts), np.log(values), 1)[0])
    return {
        "cutoffs": cuts.tolist(),
        "integrals": values.tolist(),
        "log_slope": slope,
        "cubic_coefficient": float(values[-1] / cuts[-1] ** 3),
    }


def linearized_forcing(profile, c):
    """Variational derivatives of the correction integral at the base
    profile, Phi_q = ds/dq - d/dxi[ds/dq'] for q = K, H and the density s of
    the full table c. The four partials of s are row 1 of s on one pass of
    first-order jets in four directions, each seeding one of K, H, K', H'
    with a unit tangent, node block by node block; the outer d/dxi is fd1."""
    xi = profile.grid.xi
    args = (profile.K, profile.H) + profile.derivatives
    seeds = [_Dirs(1.0 if j == i else None for j in range(4)) for i in range(4)]
    (dK, dH, dKp, dHp), = _in_blocks(profile.grid.n, lambda s: [_second_line_density_at(
        xi[s], *(_Jet([q[s], d], 1) for q, d in zip(args, seeds)), c).rows[1]])
    return dK - fd1(dKp, profile.grid.h), dH - fd1(dHp, profile.grid.h)


def _linear_operator(profile):
    """Second-order discretization of the linearized critical-point system,
    as a _BlockOperator.

    Unknowns are interleaved, y[2i] = K1(xi_i), y[2i+1] = H1(xi_i).  Interior
    rows discretize

      -2 K1'' + [2(3 K**2 - 1) + 2 H**2] K1/xi**2 + 4 K H H1/xi**2 = rhs_K
      -  H1'' + 2 K**2 H1/xi**2 + 4 K H K1/xi**2                  = rhs_H

    around the given base profile.  The first node carries regularity rows
    xi y' - 2 y = 0 for both functions (the bounded branch grows like xi**2
    there); the last node carries K1' + K1 = 0 and H1' = 0.
    """
    n, h, xi = profile.grid.n, profile.grid.h, profile.grid.xi
    K, H = profile.K, profile.H
    cK = (2.0 * (3.0 * K ** 2 - 1.0) + 2.0 * H ** 2) / xi ** 2
    cH = 2.0 * K ** 2 / xi ** 2
    cX = 4.0 * K * H / xi ** 2
    inv_h2 = 1.0 / (h * h)
    lower, upper, diag = np.zeros((2, n)), np.zeros((2, n)), np.zeros((2, 2, n))
    lower[:, 1:-1] = upper[:, 1:-1] = [[-2.0 * inv_h2], [-inv_h2]]
    diag[..., 1:-1] = [[4.0 * inv_h2 + cK[1:-1], cX[1:-1]], [cX[1:-1], 2.0 * inv_h2 + cH[1:-1]]]
    two_h, both = 2.0 * h, [0, 1]
    # regularity rows at the first node: xi y' - 2 y = 0, forward 3-point y'
    diag[both, both, 0] = xi[0] * (-3.0 / two_h) - 2.0
    upper[:, 0] = xi[0] * (4.0 / two_h)
    # cutoff rows: K1' + K1 = 0 and H1' = 0, backward 3-point y'
    diag[both, both, -1] = [3.0 / two_h + 1.0, 3.0 / two_h]
    lower[:, -1] = -4.0 / two_h
    # the third stencil points, outside the band
    reach = [(0, 2, xi[0] * (-1.0 / two_h)), (n - 1, n - 3, 1.0 / two_h)]
    return _BlockOperator(lower, diag, upper, reach)


# block nodes left to a dense solve when the cyclic reduction stops
_CORE_NODES = 32


def _mul(a, b):
    """a_i b_i for stacks of k 2x2 blocks, stored component-major: (2, 2, k),
    or (2, k) for diagonal blocks; b may also be node vectors (2, m, k). A
    diagonal factor is a broadcast product, bit for bit the einsum on its
    blocks: each entry sums one product with an exact zero."""
    if a.ndim == 2:
        return a[:, None] * b
    return a * b if b.ndim == 2 else np.einsum("abk,b...k->a...k", a, b)


def _inverse(d):
    """Inverse of a 2x2 block or (2, 2, k) block stack; a zero or non-finite
    determinant raises LinAlgError before anything divides by it."""
    det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
    if not (np.isfinite(det).all() and np.all(det != 0.0)):
        raise np.linalg.LinAlgError("Matrix is exactly singular")
    return np.array([[d[1, 1], -d[0, 1]], [-d[1, 0], d[0, 0]]]) / det


def _nodes(y):
    """Interleaved unknowns, (2n,) or (2n, m), as a contiguous copy of node
    vectors (2, m, n); _interleaved turns them back."""
    return y.reshape(len(y) // 2, 2, -1).transpose(1, 2, 0).copy()


def _interleaved(v, shape):
    return v.transpose(2, 0, 1).reshape(shape)


class _BlockOperator:
    """A matrix in 2x2 node blocks of interleaved unknowns: the (2, 2, n) stack
    diag; the couplings lower and upper (lower[..., 0] and upper[..., -1]
    zero) as (2, n) stacks of diagonal blocks, or (2, 2, n) stacks where only
    @ reads them; and reach, the entries off the band as (row node, column
    node, coefficient of the identity block)."""

    def __init__(self, lower, diag, upper, reach):
        self.lower, self.diag, self.upper, self.reach = lower, diag, upper, reach
        self.shape = (2 * diag.shape[-1],) * 2

    def __matmul__(self, y):
        v = _nodes(y)
        out = _mul(self.diag, v)
        out[..., 1:] += _mul(self.lower[..., 1:], v[..., :-1])
        out[..., :-1] += _mul(self.upper[..., :-1], v[..., 1:])
        for i, j, c in self.reach:
            out[..., i] += c * v[..., j]
        return _interleaved(out, y.shape)

    def norm(self):
        """The max norm, the largest absolute row sum."""
        sums = np.abs(self.lower) + np.abs(self.diag).sum(axis=1) + np.abs(self.upper)
        for i, _, c in self.reach:
            sums[:, i] += abs(c)
        return sums.max()

    def toarray(self):
        return self @ np.eye(self.shape[0])


class _Factorization:
    """A factored _BlockOperator whose reach touches only its end nodes, and
    whose end nodes' diagonal blocks are diagonal.

    The two end nodes go first, each by its own pivot block, which leaves
    the interior block tridiagonal. Block cyclic reduction takes that Schur
    complement without pivoting: each level eliminates the odd nodes by the
    inverses of their diagonal blocks, until at most _CORE_NODES are left to
    a pivoted dense solve. A level keeps those inverses and views of its
    couplings, diagonal at the first level, and the sweeps apply them in turn.
    T is the factorization of A^T, read off this one by transposes: every
    Schur complement of A^T is A's, transposed."""

    def __init__(self, A):
        n = A.diag.shape[-1]
        links = [(1, 0, A.lower[:, 1]), (0, 1, A.upper[:, 0]),
                 (n - 2, n - 1, A.upper[:, -2]), (n - 1, n - 2, A.lower[:, -1])]
        links = [(i, j, np.diag(c)) for i, j, c in links]
        links += [(i, j, c * np.eye(2)) for i, j, c in A.reach]
        self.pivots = {e: _inverse(A.diag[..., e]) for e in (0, n - 1)}
        # (row, end, block) of the interior rows' couplings to an end node,
        # and (end, column, block) of the end rows' couplings
        self.into = [link for link in links if link[1] in self.pivots]
        self.out = [link for link in links if link[0] in self.pivots]
        lower, diag, upper = bands = [b[..., 1:-1].copy() for b in (A.lower, A.diag, A.upper)]
        lower[:, 0] = upper[:, -1] = 0.0
        # the end pivots are diagonal, so the Schur corrections to the couplings are too
        for i, j, b in self.into:
            for e, k, c in self.out:
                if e == j:
                    band, s = bands[k - i + 1], b @ self.pivots[j] @ c
                    band[..., i - 1] -= s if band.ndim == 3 else s.diagonal()
        del bands  # level 1 keeps views of the couplings, and no level the diagonal
        self.levels = []
        while diag.shape[-1] > _CORE_NODES:
            inv, lo, up = _inverse(diag[..., 1::2]), lower[..., 1::2], upper[..., 1::2]
            odd, even = inv.shape[-1], diag.shape[-1] - inv.shape[-1]
            # even node q couples to odd nodes q - 1 (alpha) and q (gamma)
            lo_even, up_even = lower[..., 2::2], upper[..., :2 * odd:2]
            alpha = -_mul(lo_even, inv[..., :even - 1])
            gamma = -_mul(up_even, inv)
            diag = diag[..., 0::2].copy()
            diag[..., 1:] += _mul(alpha, up[..., :even - 1])
            diag[..., :odd] += _mul(gamma, lo)
            lower, upper = np.zeros_like(diag), np.zeros_like(diag)
            lower[..., 1:], upper[..., :odd] = _mul(alpha, lo[..., :even - 1]), _mul(gamma, up)
            self.levels.append((inv, lo, up, lo_even, up_even))
        self.core = _BlockOperator(lower, diag, upper, ()).toarray()

    @cached_property
    def T(self):
        t = object.__new__(_Factorization)
        t.pivots = {e: p.T for e, p in self.pivots.items()}
        t.into, t.out = ([(j, i, b.T) for i, j, b in links] for links in (self.out, self.into))
        t.levels = []
        for inv, lo, up, lo_even, up_even in self.levels:
            k = lo_even.shape[-1]  # the odd nodes with an even node to their right
            level = inv, up_even, lo_even, up[..., :k], lo
            t.levels.append(tuple(b if b.ndim == 2 else b.swapaxes(0, 1) for b in level))
        t.core = self.core.T
        return t

    def solve(self, b):
        """x with A x = b, for b of shape (2n,) or (2n, m). b is scaled by a
        power of two first, so the reduction has room below overflow, and x
        back after."""
        unit = 2.0 ** math.frexp(np.abs(b).max())[1]
        x = _nodes(b)
        x /= unit
        ends = {e: p @ x[..., e] for e, p in self.pivots.items()}
        for i, j, block in self.into:
            x[..., i] -= block @ ends[j]
        rhs, f = [], x[..., 1:-1]
        for inv, _, _, lo_even, up_even in self.levels:
            rhs.append(f)
            odd, f = _mul(inv, f[..., 1::2]), f[..., 0::2].copy()
            f[..., 1:] -= _mul(lo_even, odd[..., :f.shape[-1] - 1])
            f[..., :inv.shape[-1]] -= _mul(up_even, odd)
        # each level's solution overwrites its right-hand side, the first level's in x
        f[...] = y = _nodes(np.linalg.solve(self.core, _interleaved(f, (len(self.core), -1))))
        for (inv, lo, up, *_), f in zip(reversed(self.levels), reversed(rhs)):
            r = f[..., 1::2]
            r -= _mul(lo, y[..., :inv.shape[-1]])
            r[..., :y.shape[-1] - 1] -= _mul(up[..., :y.shape[-1] - 1], y[..., 1:])
            f[..., 0::2], r[...], y = y, _mul(inv, r), f
        for e, j, block in self.out:
            x[..., e] -= block @ x[..., j]
        for e, p in self.pivots.items():
            x[..., e] = p @ x[..., e]
        x *= unit
        return _interleaved(x, b.shape)


def spsolve(A, b):
    """The response solve, A x = b, through one _Factorization of the block
    operator A. A module-level name, so a caller can wrap the solve
    (bench/tracer.py times it here)."""
    return _Factorization(A).solve(b)


# radial nodes of the coarse companion grid behind the singular value diagnostic
_DIAGNOSTIC_N = 400
# block inverse iteration for that diagnostic: block width (the two regularity
# and the two cutoff rows), stop rule on the relative change of the estimate,
# and the iteration cap
_DIAGNOSTIC_BLOCK = 4
_DIAGNOSTIC_RTOL = 1e-12
_DIAGNOSTIC_MAX_ITER = 50


def _inverse_largest_sv(Z):
    """1 / (largest singular value of the tall block Z), from its Gram matrix;
    NaN when Z is not finite."""
    gram = Z.T @ Z
    return 1.0 / math.sqrt(np.linalg.eigvalsh(gram)[-1]) if np.isfinite(gram).all() else math.nan


def _min_singular_value(A):
    """(sigma_min, iterations, last relative change) of the response operator
    A by block inverse iteration on one factorization of A and its transposed
    view: Q <- qr(A^-T (A^-1 Q)) from a fixed block, the first cosine (DCT-II)
    columns over the row index (no random draw, so no numpy.random), with
    sigma_min estimated as 1 / (the largest singular value of A^-1 Q). It
    stops once an iteration moves the estimate by at most _DIAGNOSTIC_RTOL
    relative, or after _DIAGNOSTIC_MAX_ITER iterations; a non-finite
    estimate stops it at once and is returned as NaN."""
    lu = _Factorization(A)
    n = A.shape[0]
    block = np.cos(math.pi * (np.arange(n)[:, None] + 0.5) * np.arange(_DIAGNOSTIC_BLOCK) / n)
    Z = lu.solve(np.linalg.qr(block)[0])
    sigma, iterations, change = _inverse_largest_sv(Z), 0, math.inf
    while iterations < _DIAGNOSTIC_MAX_ITER and change > _DIAGNOSTIC_RTOL:
        Z = lu.solve(np.linalg.qr(lu.T.solve(Z))[0])
        estimate = _inverse_largest_sv(Z)
        iterations, change, sigma = iterations + 1, abs(estimate - sigma) / estimate, estimate
    return sigma, iterations, change


def solve_perturbation(profile, coeffs=None):
    """First-order profile response to switching on the correction density.

    Solves the linearized system with right-hand side minus the correction
    forcings and reports the normwise backward error of the solve,
    ||A y - b|| / (||A|| ||y|| + ||b||) in the max norm, which stays near
    machine precision for a stable solve at any grid size (the plain
    relative residual grows like 1/h**2).  The translation-like direction
    (K', H') of the base profile satisfies the cutoff rows but not the
    regularity rows, so the operator is invertible.
    """
    c = _filled_coeffs(coeffs)
    rhs = np.zeros(2 * profile.grid.n)
    # the forcings go before the operator is built: none is alive across the solve
    rhs[2:-2:2], rhs[3:-2:2] = (-phi[1:-1] for phi in linearized_forcing(profile, c))
    A = _linear_operator(profile)
    y = spsolve(A, rhs)
    scale = A.norm() * np.abs(y).max() + np.abs(rhs).max()
    return Perturbation(
        K1=y[0::2],
        H1=y[1::2],
        coeffs=c,
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
    the linearity in epsilon of the energy change dE = E(eps) - E(0) + eps *
    (correction integral of the corrected profile), the backward error of
    the solve, and the coarse-grid singularity diagnostic. The densities are
    quartic, so their rows on jets of K + eps K1, H + eps H1 and the
    derivatives integrate to dE exactly, as a polynomial in eps.

    min_singular_value, the distance from singularity, is the smallest
    singular value of the response operator around the closed-form
    bps_profile on 400 nodes over the profile's xi_max: it depends on xi_max
    alone. It comes from block inverse iteration, with a block of 4
    columns, on one factorization of that operator and its transposed view:
    at small xi_max the two regularity rows share one stencil and the two
    smallest singular values nearly coincide, which stalls a single vector.
    It stops when an iteration moves the estimate by at most 1e-12
    relative, or at a cap of 50 iterations; the count and the last relative
    change are reported, so a capped run shows a change above 1e-12.
    """
    response = max(np.abs(pert.K1).max(), np.abs(pert.H1).max(), 1.0)
    # keep the first-order displacement below ~3e-3 in sup norm so the fit
    # probes the linear-response window of the deformation
    epsilons = np.linspace(0.1, 1.0, 7) * 3e-3 / response
    # fit in epsilons / unit, an exact power-of-two scaling, so that tiny
    # epsilons do not underflow when polyfit squares them; the jets' variable
    # is eps / unit too, which keeps their rows in range
    unit = 2.0 ** math.frexp(epsilons.max())[1]
    grid, xi = profile.grid, profile.grid.xi
    coarse = bps_profile(RadialGrid(grid.xi_max, _DIAGNOSTIC_N))
    min_sv, iterations, change = _min_singular_value(_linear_operator(coarse))
    base = (profile.K, profile.H) + profile.derivatives
    tangents = (pert.K1, pert.H1, fd1(pert.K1, grid.h), fd1(pert.H1, grid.h))

    def rows(s):
        jets = [_Jet([q[s], unit * t[s]], 4) for q, t in zip(base, tangents)]
        return _energy_density_at(xi[s], *jets).rows, _second_line_density_at(xi[s], *jets, pert.coeffs).rows

    energy, correction = _in_blocks(grid.n, rows)
    energy = [float(_simpson(row, grid.h)) for row in energy]
    # dE = sum_{k>=1} x**k energy[k] + unit x sum_k x**k (integrated correction[k]), x = eps / unit
    poly = unit * np.array([0.0] + [float(_simpson(row, grid.h)) for row in correction])
    poly[1:len(energy)] += energy[1:]
    changes = np.polynomial.polynomial.polyval(epsilons / unit, poly)
    finite = np.isfinite(changes).all()  # the LAPACK fit fails on non-finite data
    slope, intercept = np.polyfit(epsilons / unit, changes, 1) if finite else (np.nan, np.nan)
    slope /= unit
    ss_res = float(np.sum((changes - (slope * epsilons + intercept)) ** 2))
    ss_tot = float(np.sum((changes - changes.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0  # equal changes are all zero: a line
    return {
        "origin_exponent_K": origin_exponent(grid, pert.K1),
        "origin_exponent_H": origin_exponent(grid, pert.H1),
        "tail_slope_K": tail_slope(grid, pert.K1),
        "tail_slope_H": tail_slope(grid, pert.H1),
        "linearity_r_squared": r_squared,
        "linear_slope": float(slope),
        "epsilon_max": float(epsilons.max()),
        "max_response": float(response),
        "base_energy": energy[0] + tail_estimate(grid.xi_max),
        "backward_error": pert.backward_error,
        "min_singular_value": min_sv,
        "diagnostic_n": _DIAGNOSTIC_N,
        "diagnostic_iterations": iterations,
        "diagnostic_change": change,
        "cutoff": grid.xi_max,
        "n": grid.n,
    }


def physical_energy(completed, cutoff, correction, evb, v, beta, e, b):
    """Dimensionful energy estimate at deformation strength set by evb, from
    a profile's completed energy, its cutoff and its correction integral.

    The deformation parameter is epsilon = (evb)**4/30, computed from the
    evb argument alone; the overall prefactor 8 pi**2 v beta/(e**3 b**2)
    comes from the remaining parameters.  The two are reported side by side
    without any consistency requirement, since scans vary evb at fixed
    parameters.  The integer check on 2/e is a reported flag, never an
    error.
    """
    epsilon = evb ** 4 / 30.0
    prefactor = 8.0 * np.pi ** 2 * v * beta / (e ** 3 * b ** 2)
    return {
        "evb": evb,
        "epsilon": epsilon,
        "E0_integral": completed,
        "correction_integral": correction,
        "dE_over_E0": epsilon * correction / completed,
        "cutoff": cutoff,
        "prefactor": prefactor,
        "total": prefactor * (completed + epsilon * correction),
        "quantization_ok": abs(2.0 / e - round(2.0 / e)) < 1e-12,
    }


def energy_scan(evb_list, xi_max, n, v=1.0, beta=1.0, e=2.0, b=1.0, coeffs=None):
    """physical_energy of one closed-form profile at each evb; the two
    integrals do not depend on evb and are computed once."""
    profile = bps_profile(RadialGrid(xi_max, n))
    completed = _raw_energy(profile) + tail_estimate(xi_max)
    correction = second_line_integral(profile, coeffs)
    return [physical_energy(completed, xi_max, correction, evb, v, beta, e, b) for evb in evb_list]


def convergence_check(breakdown):
    """How much of the completed energy's error, completed - 1 (the exact
    energy is 1), the grid explains.

    The raw integral of breakdown's profile at n nodes is compared with the
    closed-form profile's at n/2 and n/4 nodes on the same cutoff, or at 2n
    and 4n when n/4 is below the 16 nodes a RadialGrid needs. The two
    differences give the observed order p, Richardson's extrapolation from
    the finest two gives the continuum value, and discretization_estimate
    is the signed distance of the integral at n from it. cutoff_remainder,
    the error minus that estimate, is what the grid does not explain: the
    tail model's share, which takes K = 0 past the cutoff.

    The differences are taken between raw integrals, since the tail
    1/xi_max is the same on every grid and at a small cutoff would round
    them to zero. Where one still vanishes, or the two are equal, p is
    undefined and the nominal order 3 stands in: the dominant error is the
    missing [0, h] sliver of the integral, which shrinks like h**3.

    An order outside [2, 4] says the grids are not in their asymptotic
    range: the estimate and the remainder are then NaN, unless the estimate
    is lost in the rounding of the error, where it cannot move the blame.
    """
    xi_max, n = breakdown.xi_max, breakdown.n
    raw = {n: breakdown.raw_integral}
    for m in (n // 2, n // 4) if n // 4 >= 16 else (2 * n, 4 * n):
        raw[m] = _raw_energy(bps_profile(RadialGrid(xi_max, m)))
    fine, mid, coarse = (raw[m] for m in sorted(raw, reverse=True))
    d_fine, d_coarse = fine - mid, mid - coarse
    order = 3.0
    if d_fine and d_coarse and abs(d_fine) != abs(d_coarse):
        order = math.log2(abs(d_coarse) / abs(d_fine))
    estimate = raw[n] - (fine + d_fine / (2.0 ** order - 1.0))
    remainder = breakdown.completed - 1.0 - estimate
    if not 2.0 <= order <= 4.0 and remainder != breakdown.completed - 1.0:
        estimate = remainder = math.nan
    return {"discretization_estimate": estimate, "observed_order": order,
            "cutoff_remainder": remainder}
