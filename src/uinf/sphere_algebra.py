"""Band-limited function algebra on the unit two-sphere.

Fields live in the orthonormal complex harmonic basis (Condon-Shortley
phase). Synthesis, analysis, and the area-preserving bracket

    {f, g} = df/d(cos theta) dg/dphi - df/dphi dg/d(cos theta)

are exact for band-limited inputs on Gauss-Legendre x uniform-phi grids sized
by the rules in grid_for_band_limit. Nodes never sit on the poles, so the
1/sin(theta) factors that appear in coordinate derivatives stay finite. The
structure constants are a closed form over the Legendre tables, not a bracket.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
import math
import sys

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "SphereGrid",
    "HarmonicField",
    "grid_for_band_limit",
    "synthesize",
    "gradients",
    "analyze",
    "bracket",
    "brackets",
    "product",
    "integral_of_product",
    "structure_constants",
    "su2_generators",
    "random_real_field",
    "lm_pairs",
]


def _row(B, l, m):
    """Row of degree l, order m in a Legendre table packed at band B, flattened to
    (B//2 + 1) (B + 2) rows: order m <= B//2 sits in pair m at position l - m, and order
    m > B//2 in pair B - m at position l + 1, after the B - m + 1 degrees of its partner.
    Degree l - 1 of the same order sits one row before."""
    return np.where(m <= B // 2, m * (B + 1) + l, (B - m) * (B + 2) + l + 1)


def _degree(table, l, top):
    """Views of degree l's orders 0..top in a table packed at band B, as _row places them:
    the lower orders are one stride-(B + 1) run of the flattened rows, the upper orders one
    column of their pairs, reversed into order."""
    B = table.shape[1] - 2
    lower = min(top, B // 2) + 1
    return (table.reshape(-1, table.shape[2])[l:l + lower * (B + 1):B + 1],
            table[B - top:B - B // 2, l + 1][::-1])


def _legendre_table(B, x):
    """Normalized associated Legendre values P(l, m) at x for 0 <= m <= l <= B, packed:
    shaped (B//2 + 1, B + 2, len(x)), order m paired with order B - m as _row places them,
    so the table holds the (B+1)(B+2)/2 nonzero rows and, at even B, the B/2 + 1 zero rows
    of the middle pair. Normalization is such that Y_lm = P(l, m) exp(i m phi) is orthonormal
    on the sphere, with the Condon-Shortley sign folded in. A grid holds this table on its
    nodes x >= 0, one degree past its band for the x-derivatives of _x_derivative."""
    x = np.asarray(x, dtype=float)
    table = np.zeros((B // 2 + 1, B + 2, x.size))
    P = table.reshape(-1, x.size)
    sin_theta = np.sqrt(1.0 - x * x)
    diag = _row(B, np.arange(B + 1), np.arange(B + 1))
    P[diag[0]] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, B + 1):
        P[diag[m]] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * P[diag[m - 1]]
    m = np.arange(B)
    P[diag[:-1] + 1] = np.sqrt(2.0 * m + 3.0)[:, None] * x * P[diag[:-1]]
    # one pass per degree over all its orders: the recurrence fills m <= l - 2
    # from the two degrees below
    for l in range(2, B + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        lower = slice(min(l - 2, B // 2) + 1)
        for s, (row, one, two) in zip((lower, slice(lower.stop, None)),
                                      zip(*(_degree(table, k, l - 2) for k in (l, l - 1, l - 2)))):
            row[...] = a[s] * (x * one - b[s] * two)
    return table


def _alpha(l, m):
    """a(l, m) = sqrt((l^2 - m^2) / (4 l^2 - 1)), so that for the normalized P
    x P(l, m) = a(l+1, m) P(l+1, m) + a(l, m) P(l-1, m); a(m, m) = 0."""
    return np.sqrt((l * l - m * m) / (4.0 * l * l - 1.0))


def _x_derivative(below, above, factors):
    """factors[0] below + factors[1] above, by DLMF 14.10 for the normalized P:
    (x^2 - 1) dP(l, m)/dx = l a(l+1, m) P(l+1, m) - (l+1) a(l, m) P(l-1, m). From the P rows
    of degrees l -/+ 1 it gives the rows of (x^2 - 1) P'; from a field's coefficients
    f(j -/+ 1, m), with factors (j-1) a(j, m) and -(j+2) a(j+1, m), the coefficients of D f,
    whose synthesis is (x^2 - 1) df/dx: band L + 1 and the same orders for f of band L."""
    return factors[0] * below + factors[1] * above


_Synthesis = namedtuple("_Synthesis", "rows parity gather weight steps cols dcols at_nodes dx_at "
                        "scale")
_Analysis = namedtuple("_Analysis", "rows parity reflect into sides place")


@lru_cache(maxsize=None)
def _plan(band, L, synthesis):
    """Index arrays and factors of a band-L synthesis (and gradient), or analysis, on the grid
    of the given band, against its table P, packed at band B = band + 1 and kept on the nodes
    x >= 0, whose entry at -x is (-1)^(l+m) times its entry at x. L > band raises ValueError.
    Each direction builds only the arrays it reads.

    The slots (l, m) run order by order over degrees m..L, for synthesis m..L+1, where D f
    (_x_derivative) reaches and f is 0. gather holds their flat indices (degree L for L + 1)
    in a (L+1, 2L+1) coefficient array, then those of (l, -m); parity, weight, reflect and
    steps hold per slot (-1)^m, the one-sided sum's weight (0 at degree L + 1), the
    (-1)^(l+m) that takes P(l, m) at x to P(l, m) at -x, and _x_derivative's factors on the
    slots before and after (0 where that is no neighbour in f). scale holds per node
    1 / (x^2 - 1), and per order (-m, m), which times each order's (im, re) gives d/dphi.

    The read, table[rows]: when L <= B//2 every order 0..L is a pair's lower order, and it
    takes positions 0..top, the top degree, of pairs 0..L in one column block, order m's
    degree m + j at position j; otherwise positions 0..top+1 of every pair in two column
    blocks, the lower order's and the upper's. One matrix product per pair then covers both
    hemispheres, each node x >= 0 beside its mirror x < 0 as the two sides of a block:
    - synthesis takes cols[pair, position, (block, side)] from the rows [0, parts, 0] and
      [0, -parts, 0] of _rows, the part at its slot on side 0, sign (-1)^(l+m) times
      it on side 1, the first 0 where the read places nothing, and dcols those and D f's
      from [0, D f, 0] and [0, -D f, 0] after them. at_nodes[node, (m, re/im)] indexes the
      flat real product rows (pair, node, block, side, re/im) at each grid node, dx_at[0]
      D f's and dx_at[1] f's (im, re) in the rows (pair, node, field, block, side, re/im);
    - analysis takes into[pair, node, (block, side)] from the flat (node, m) weighted order
      amplitudes followed by a 0, which the equator's mirror and the unused orders read;
      sides[:n] and sides[n:] index the two sides of each slot in the flat complex product
      rows (pair, position, block, side), and place[l, m + L] indexes each coefficient in
      [slots, their (l, -m) mirrors, 0].
    """
    if L > band:
        raise ValueError("grid too coarse for band limit")
    grid = grid_for_band_limit(band)
    B, n_theta = grid.P.shape[1] - 2, grid.n_theta
    top, order = L + synthesis, np.arange(L + 1)
    m, l = np.nonzero(np.arange(top + 1) >= order[:, None])
    count, blocks = len(l), 1 if L <= B // 2 else 2
    pairs, positions = (L + 1, top + 1) if blocks == 1 else (B // 2 + 1, top + 2)
    upper = m > B // 2
    slot = (np.where(upper, B - m, m) * positions + np.where(upper, l + 1, l - m)) * blocks + upper
    reflect = 1.0 - 2.0 * ((l + m) % 2)
    nodes, south, j = (n_theta + 1) // 2, n_theta // 2, np.arange(n_theta)[:, None]
    # each grid node's product row (pair, node) and column (block, side), per order
    row = (np.where(order > B // 2, B - order, order) * nodes
           + np.where(j < south, nodes - 1 - j, j - south))
    col = 2 * (order > B // 2) + (j < south)
    at = np.minimum(l, L) * (2 * L + 1) + L + m
    rows, parity = np.s_[:pairs, :positions], _column_parity(L)[L + m]
    if synthesis:
        cols = np.zeros((pairs * positions * blocks, 2), dtype=int)
        cols[slot] = np.arange(1, count + 1)[:, None] + np.outer(reflect < 0, [0, count + 2])
        cols = cols.reshape(pairs, positions, 2 * blocks)
        f, both = 2 * (row * 2 * blocks + col), 2 * (row * 4 * blocks + col) + 1
        dphi = (order[:, None] * [-1.0, 1.0]).reshape(-1)
        plan = _Synthesis(
            rows, parity, np.stack([at, at - 2 * m]),
            np.where(l > L, 0.0, np.where(m > 0, 1.0, 0.5)),
            np.stack([(l - 1) * _alpha(l, m),  # complex, as the parts they weigh
                      np.where(l < L, -(l + 2) * _alpha(l + 1, m), 0.0)]).astype(complex),
            cols, np.concatenate([cols, np.where(cols > 0, cols + 2 * (count + 2), 0)], axis=2),
            np.stack([f, f + 1], -1).reshape(n_theta, -1),
            np.stack([np.stack([both + 4 * blocks - 1, both + 4 * blocks], -1),
                      np.stack([both, both - 1], -1)]).reshape(2, n_theta, -1),
            np.stack(np.broadcast_arrays(1.0 / (grid.x * grid.x - 1.0)[:, None], dphi)))
    else:
        out = row * 2 * blocks + col
        into = np.full(pairs * nodes * blocks * 2, out.size)
        into[out.reshape(-1)] = np.arange(out.size)
        place = np.full((L + 1) * (2 * L + 1), 2 * count)
        place[at - 2 * m] = np.arange(count) + count
        place[at] = np.arange(count)
        plan = _Analysis(rows, parity, reflect, into.reshape(pairs, nodes, 2 * blocks),
                         np.concatenate([2 * slot, 2 * slot + 1]),
                         place.reshape(L + 1, 2 * L + 1))
    for arr in plan[1:]:
        arr.setflags(write=False)
    return plan


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature grid: Gauss-Legendre in x = cos(theta), uniform in phi.

    Integration is exact for integrands of harmonic band <= 2*band_limit;
    analysis is exact for fields of band <= band_limit. trig[m] holds
    (cos(m phi), -sin(m phi)) for 0 <= m <= band_limit, so that
    Re(a exp(i m phi)) = (Re a, Im a) . trig[m]. w2d holds the quadrature
    weights on the (theta, phi) product grid; they sum to 4 pi. The nodes
    mirror, x == -x[::-1], and P(l, m) at -x is (-1)^(l+m) times P(l, m) at x,
    so P is the Legendre table on the B//2 + 1 nodes x >= 0, B = band_limit,
    to degree B + 1 for the D f of _x_derivative, packed at its nonzeros, order
    m paired with order B + 1 - m: shape ((B + 1)//2 + 1, B + 3, B//2 + 1),
    about a quarter of the (l, m, node) cube.
    """

    band_limit: int
    n_theta: int
    n_phi: int
    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    sin_theta: np.ndarray = field(repr=False)
    w2d: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    trig: np.ndarray = field(repr=False)


@lru_cache(maxsize=None)
def grid_for_band_limit(band_limit):
    """Grid whose analysis is exact for fields of the given band limit:
    band_limit + 1 Gauss-Legendre nodes (exact to polynomial degree
    2*band_limit + 1) by 2*band_limit + 1 phi nodes (exact Fourier
    integration for azimuthal orders up to 2*band_limit)."""
    if band_limit < 0:
        raise ValueError("band limit must be nonnegative")
    n_theta, n_phi = band_limit + 1, 2 * band_limit + 1
    x, w = leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w2d = np.outer(w, np.full(n_phi, 2.0 * math.pi / n_phi))
    m_phi = np.outer(np.arange(band_limit + 1), phi)
    trig = np.stack([np.cos(m_phi), -np.sin(m_phi)], axis=1)
    del m_phi  # the table's build is the peak, with no trig temporaries beside it
    P = _legendre_table(band_limit + 1, x[n_theta // 2:])
    arrays = (x, w, phi, np.sqrt(1.0 - x * x), w2d, P, trig)
    for arr in arrays:
        arr.setflags(write=False)
    return SphereGrid(band_limit, n_theta, n_phi, *arrays)


@dataclass(frozen=True)
class HarmonicField:
    """Band-limited function on the sphere stored as harmonic coefficients.

    coeffs has shape (l_max + 1, 2*l_max + 1); column j holds order
    m = j - l_max. Entries with |m| > l are structurally zero.
    """

    l_max: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.l_max + 1, 2 * self.l_max + 1):
            raise ValueError("coefficient array shape does not match l_max")
        outside = c[_outside_band(self.l_max)]
        # count_nonzero is the cheaper test on the few slots of a small band, any on many
        if np.count_nonzero(outside) if outside.size < 512 else outside.any():
            raise ValueError("nonzero coefficient with |m| > l")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def basis(cls, l, m):
        """The harmonic Y_lm as a field of band limit l."""
        if abs(m) > l:
            raise ValueError("need |m| <= l")
        c = np.zeros((l + 1, 2 * l + 1), dtype=complex)
        c[l, l + m] = 1.0
        return cls(l, c)

    def pad_to(self, l_max):
        if l_max < self.l_max:
            raise ValueError("pad_to cannot shrink the band limit")
        if l_max == self.l_max:
            return self
        c = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
        off = l_max - self.l_max
        c[: self.l_max + 1, off : off + 2 * self.l_max + 1] = self.coeffs
        return HarmonicField(l_max, c)

    def __add__(self, other):
        L = max(self.l_max, other.l_max)
        return HarmonicField(L, self.pad_to(L).coeffs + other.pad_to(L).coeffs)

    def __sub__(self, other):
        L = max(self.l_max, other.l_max)
        return HarmonicField(L, self.pad_to(L).coeffs - other.pad_to(L).coeffs)

    def __mul__(self, scalar):
        return HarmonicField(self.l_max, self.coeffs * scalar)

    __rmul__ = __mul__

    def is_real(self):
        return bool(np.max(np.abs(self.coeffs - _mirror(self.coeffs, self.l_max))) <= 1e-12)

    def grad_values(self, grid):
        """Pointwise (df/dx, df/dphi) on the grid, x = cos(theta)."""
        gx, gp, _ = _gradients([self], grid)
        return gx[0], gp[0]

    def integrate(self):
        """Integral over the sphere: sqrt(4 pi) times the constant mode."""
        val = self.coeffs[0, self.l_max] * math.sqrt(4.0 * math.pi)
        return complex(val)

    def inner(self, other):
        """Hermitian inner product integral f conj(g)."""
        L = max(self.l_max, other.l_max)
        a = self.pad_to(L).coeffs
        b = other.pad_to(L).coeffs
        return complex(np.sum(a * b.conj()))

    def norm(self):
        return math.sqrt(max(self.inner(self).real, 0.0))

    def to_dict(self):
        entries = []
        for l in range(self.l_max + 1):
            for m in range(-l, l + 1):
                z = self.coeffs[l, self.l_max + m]
                if z.real == 0.0 and z.imag == 0.0:
                    continue
                entries.append({"l": l, "m": m, "re": z.real, "im": z.imag})
        return {"l_max": self.l_max, "real": self.is_real(), "coeffs": entries}

    @classmethod
    def from_dict(cls, payload):
        """Inverse of to_dict; a payload of another layout raises ValueError."""
        if not (isinstance(payload, dict) and _json_number(payload.get("l_max"), int)
                and payload["l_max"] >= 0):
            raise ValueError("a field must be an object with an integer l_max >= 0")
        l_max, entries = payload["l_max"], payload.get("coeffs", [])
        if not (isinstance(entries, list) and all(
                isinstance(e, dict) and _json_number(e.get("l"), int)
                and _json_number(e.get("m"), int) and _json_number(e.get("re", 0.0))
                and _json_number(e.get("im", 0.0)) for e in entries)):
            raise ValueError("coeffs must be a list of objects with integer l and m "
                             "and finite numbers re and im")
        if len({(e["l"], e["m"]) for e in entries}) < len(entries):
            raise ValueError("coeffs must not repeat an (l, m) entry")
        f = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
        for entry in entries:
            l, m = entry["l"], entry["m"]
            if abs(m) > l or l > l_max:
                raise ValueError("coefficient entry outside the band limit")
            f[l, l_max + m] = entry.get("re", 0.0) + 1j * entry.get("im", 0.0)
        return cls(l_max, f)


def _json_number(value, kind=(int, float)):
    """Whether a parsed JSON value is a number of that kind (not a bool)
    within the finite float range."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@lru_cache(maxsize=None)
def _outside_band(l_max):
    """Mask of the coefficient slots with |m| > l."""
    mask = np.abs(np.arange(-l_max, l_max + 1)) > np.arange(l_max + 1)[:, None]
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _column_parity(l_max):
    """(-1)^m over the coefficient columns m = -l_max..l_max."""
    parity = 1.0 - 2.0 * (np.arange(-l_max, l_max + 1) % 2)
    parity.setflags(write=False)
    return parity


def _mirror(c, l_max):
    """c~(l, m) = (-1)^m conj c(l, -m); the field is real when c~ == c."""
    return _column_parity(l_max) * c[..., ::-1].conj()


def _real_parts(fields, plan):
    """Split each of a list of fields of one band limit, f = h1 + i h2, into
    real fields; h1 = (c + c~)/2, h2 = (c - c~)/2i.

    Returns the parts, shaped (parts, slots): the coefficients at the plan's slots of every
    h1, then of every nonzero h2, with m > 0 doubled for the one-sided cos/sin sum; and the
    mask of fields with a nonzero h2. Exactly Hermitian coefficients give h2 == 0, so real
    fields keep real values.
    """
    coeffs = np.array([f.coeffs for f in fields]).reshape(len(fields), -1).take(plan.gather, axis=1)
    c, mirror = coeffs[:, 0], plan.parity * coeffs[:, 1].conj()
    h2 = (c - mirror) * plan.weight
    cplx = h2.any(axis=1)
    parts = (c + mirror) * plan.weight
    if cplx.any():
        parts = np.concatenate([parts, h2[cplx] / 1j])
    return parts, cplx


def _rows(parts, width):
    """The rows _sum_over_l gathers from, shaped (parts, width, slots + 2): each part
    between two zeros, then its negative and width - 2 zero rows (a gradient's D f and
    -D f)."""
    row = np.zeros((len(parts), width, parts.shape[1] + 2), dtype=complex)
    row[:, 0, 1:-1] = parts
    np.negative(parts, out=row[:, 1, 1:-1])
    return row


def _sum_over_l(row, table, rows, cols):
    """Order amplitudes at the nodes x >= 0 and their mirrors: sum over l of the rows of
    _rows against table[rows]. One matrix product per pair and part takes the columns
    cols of the part's row, [c | sign (-1)^(l+m) c] and for a gradient [d | sign (-1)^(l+m) d]
    beside them, for both hemispheres, so each part has one product shape at any stack size;
    the product rows, flat per part, that the plan's node gathers index."""
    parts = row.reshape(len(row), -1).take(cols, axis=1).view(float)
    return (table[rows].transpose(0, 2, 1) @ parts).reshape(len(row), -1)


def _sum_over_m(amps, grid):
    """Grid values sum_m Re(a_m exp(i m phi)) of order amplitudes (..., node, (m, re/im))."""
    return amps @ grid.trig[:amps.shape[-1] // 2].reshape(amps.shape[-1], grid.n_phi)


def _value_kernel(parts, grid, L):
    """Grid values (parts, n_theta, n_phi) of the parts of _real_parts of band-L fields."""
    plan = _plan(grid.band_limit, L, True)
    amps = _sum_over_l(_rows(parts, 2), grid.P, plan.rows, plan.cols).take(plan.at_nodes, axis=1)
    return _sum_over_m(amps, grid)


def _gradient_kernel(parts, grid, L):
    """(df/dx, df/dphi), shaped (parts, 2, n_theta, n_phi), of the parts of _real_parts of
    band-L fields: df/dphi from the synthesis of f, df/dx from that of D f (_x_derivative)
    over x^2 - 1 at each node, both in one product per pair on P, and both in one stack for
    one phi sum."""
    plan = _plan(grid.band_limit, L, True)
    row = _rows(parts, 4)
    row[:, 2:, 1:-1] = _x_derivative(row[:, :2, :-2], row[:, :2, 2:], plan.steps)
    amps = _sum_over_l(row, grid.P, plan.rows, plan.dcols).take(plan.dx_at, axis=1)
    amps *= plan.scale
    return _sum_over_m(amps, grid)


def _analysis_kernel(values, grid, L):
    """The weighted sums over the nodes of a stack of real grid values against each slot's
    harmonic, order m >= 0 only, as (re, im) pairs (fields, 2 slots): the phi sum, then one
    Legendre product per pair with each node beside its mirror, and the two sides of each
    slot combined."""
    plan = _plan(grid.band_limit, L, False)
    k = len(values)
    F = values @ grid.trig[:L + 1].reshape(-1, grid.n_phi).T
    F *= grid.w2d[:, :1]  # the node's weight times 2 pi / n_phi
    # the 0 that the equator's mirror and the unused orders read
    F = np.concatenate([F.view(complex).reshape(k, -1), np.zeros((k, 1))], axis=1)
    per_pair = grid.P[plan.rows] @ F.take(plan.into, axis=1).view(float)
    sides = per_pair.view(complex).reshape(k, -1).take(plan.sides, axis=1)
    n = len(plan.reflect)
    return (sides[:, :n] + plan.reflect * sides[:, n:]).view(float)


# A transform whose dense matrix, and the identity stack it is built from, both have fewer
# entries than this is one matrix product; a larger one runs its factored kernel. Below it,
# per-call array overhead outweighs the dense arithmetic (README, "Transforms").
_DENSE_ENTRIES = 2**15


@lru_cache(maxsize=None)
def _matrix(band, L, kernel):
    """The real matrix, shaped (inputs, outputs), of a kernel on the grid of that band at
    field band L, or None when it or its identity stack is too large (_DENSE_ENTRIES). Row
    k is the kernel's output on unit input k: unit real and imaginary slot parts for
    synthesis and gradients, unit node values for analysis."""
    grid = grid_for_band_limit(band)
    nodes = grid.n_theta * grid.n_phi
    if kernel is _analysis_kernel:
        inputs, outputs = nodes, 2 * len(_plan(band, L, False).reflect)
    else:
        inputs = 2 * len(_plan(band, L, True).weight)
        outputs = nodes * (2 if kernel is _gradient_kernel else 1)
    if inputs * max(inputs, outputs) >= _DENSE_ENTRIES:
        return None
    unit = np.eye(inputs)
    unit = unit.reshape(-1, *grid.w2d.shape) if kernel is _analysis_kernel else unit.view(complex)
    matrix = kernel(unit, grid, L).reshape(inputs, -1)
    matrix.setflags(write=False)
    return matrix


def _transform(kernel, inputs, grid, L):
    """The kernel's output on a stack of inputs, through its matrix when it has one, which
    reads complex inputs as their real and imaginary parts. The stack is the matmul batch
    axis there too, so each row has one product shape at any stack size and a stacked row
    equals the one-field call."""
    matrix = _matrix(grid.band_limit, L, kernel)
    if matrix is None:
        return kernel(inputs, grid, L)
    flat = inputs.reshape(len(inputs), 1, -1)
    return (flat.view(float) if np.iscomplexobj(flat) else flat) @ matrix


def _with_h2(vals, cplx):
    """Per field h1, or h1 + i h2 where cplx marks it (the stack is then complex), from the
    values (parts, ...) of the parts of _real_parts."""
    if not cplx.any():
        return vals
    out = vals[:len(cplx)].astype(complex)
    out[cplx] += 1j * vals[len(cplx):]
    return out


def _synthesis(kernel, fields, grid):
    """A synthesis kernel's output (fields, outputs, n_theta, n_phi) for fields of one band
    limit, stacked, and their cplx mask."""
    L = fields[0].l_max
    parts, cplx = _real_parts(fields, _plan(grid.band_limit, L, True))
    out = _transform(kernel, parts, grid, L).reshape(len(parts), -1, grid.n_theta, grid.n_phi)
    return _with_h2(out, cplx), cplx


def _gradients(fields, grid):
    """grad_values of fields of one band limit, stacked, and their cplx mask."""
    grads, cplx = _synthesis(_gradient_kernel, fields, grid)
    return grads[:, 0], grads[:, 1], cplx


def _values(fields, grid):
    """Grid values of fields of one band limit, stacked, and their cplx mask."""
    vals, cplx = _synthesis(_value_kernel, fields, grid)
    return vals[:, 0], cplx


def _by_band(kernel, fields, grid):
    """A one-band-limit kernel's stacks for fields of any band limits, in input order: one
    call per band limit, never padding a field (that moves its transform in the last bit)."""
    bands = [f.l_max for f in fields]
    if len(set(bands)) == 1:  # the common case: the kernel's output as is
        return kernel(fields, grid)
    order = np.argsort(bands, kind="stable")
    runs = [kernel([fields[i] for i in run], grid) for _, run in groupby(order, lambda i: bands[i])]
    return tuple(np.concatenate(stacks)[np.argsort(order)] for stacks in zip(*runs))


def synthesize(fields, grid):
    """Values of a sequence of fields on the grid, stacked (fields, n_theta,
    n_phi); real when every field's coefficients are exactly Hermitian."""
    return _by_band(_values, fields, grid)[0]


def gradients(fields, grid):
    """(df/dx, df/dphi) of a sequence of fields, x = cos(theta), stacked as by synthesize."""
    return _by_band(_gradients, fields, grid)[:2]


def analyze(values, l_max, grid):
    """Project grid values onto harmonics up to l_max by quadrature.

    Real values give exactly Hermitian coefficients: m >= 0 is computed and
    m < 0 mirrored. Complex values are analyzed as re + i im. Non-finite
    values raise FloatingPointError.
    """
    return HarmonicField(l_max, _analyze(np.asarray(values)[None], l_max, grid)[0])


def _analyze(values, L, grid):
    """Coefficients (fields, l, 2L+1) of a stack of grid values, each as by
    analyze bit for bit: the field axis is a matmul batch axis, so each field
    has one product shape at any stack size."""
    if values.shape[1:] != (grid.n_theta, grid.n_phi):
        raise ValueError("value array does not match the grid")
    if not np.isfinite(values).all():
        raise FloatingPointError("grid values to analyze are not all finite (an overflow)")
    plan = _plan(grid.band_limit, L, False)
    cplx = np.iscomplexobj(values)
    parts = np.stack([values.real, values.imag], 1).reshape(-1, *grid.w2d.shape) if cplx else values
    half = _transform(_analysis_kernel, parts, grid, L).reshape(len(parts), -1).view(complex)
    slots = np.concatenate([half, plan.parity * half.conj(), np.zeros((len(half), 1))], axis=1)
    coeffs = slots.take(plan.place, axis=1)
    return coeffs[0::2] + 1j * coeffs[1::2] if cplx else coeffs


def bracket(f, g):
    """Area-preserving bracket {f, g}; result band limit f.l_max + g.l_max."""
    L = f.l_max + g.l_max
    grid = grid_for_band_limit(L)
    fx, fp = f.grad_values(grid)
    gx, gp = g.grad_values(grid)
    vals = fx * gp - fp * gx
    return analyze(vals, L, grid)


def brackets(pairs):
    """[bracket(f, g) for f, g in pairs], bit for bit. Per result band
    limit, the gradients of each distinct field (by identity) are taken once,
    in one stacked call per field band limit, and the products are analyzed
    in one stacked call (two when real and complex products mix)."""
    out = [None] * len(pairs)
    for L in {f.l_max + g.l_max for f, g in pairs}:
        idx = [i for i, (f, g) in enumerate(pairs) if f.l_max + g.l_max == L]
        grid = grid_for_band_limit(L)
        fields = list({id(h): h for i in idx for h in pairs[i]}.values())
        gx, gp, cplx = _by_band(_gradients, fields, grid)
        row = {id(h): r for r, h in enumerate(fields)}
        f, g = np.array([[row[id(h)] for h in pairs[i]] for i in idx]).T
        vals, real = gx[f] * gp[g] - gp[f] * gx[g], ~(cplx[f] | cplx[g])
        for sel, v in ((real, vals.real), (~real, vals)):
            if sel.any():
                for i, c in zip(np.array(idx)[sel], _analyze(v[sel], L, grid)):
                    out[i] = HarmonicField(L, c)
    return out


def product(f, g):
    """Pointwise product re-analyzed at the combined band limit."""
    L = f.l_max + g.l_max
    grid = grid_for_band_limit(L)
    # one synthesis per operand: a stack of the two is slower on large grids
    vals = synthesize([f], grid)[0] * synthesize([g], grid)[0]
    return analyze(vals, L, grid)


def integral_of_product(f, g):
    """integral f g dOmega (no conjugation), exact from coefficients."""
    L = max(f.l_max, g.l_max)
    a = f.pad_to(L).coeffs
    b = g.pad_to(L).coeffs
    return complex(np.sum(_column_parity(L) * a * b[:, ::-1]))


def lm_pairs(l_max):
    """The (l, m) pairs within l_max, shape ((l_max + 1)^2, 2): (l, m) sits at row l^2 + l + m."""
    return np.array([(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)])


def structure_constants(l_max):
    """f_abc = integral {Y_a, Y_b} conj(Y_c) within l_max, in closed form, stored as S.

    With Y = P(x) exp(i m phi), {Y_a, Y_b} = i (m_b P_a' P_b - m_a P_a P_b') exp(i (m_a + m_b) phi):
    the phi integral is 2 pi where m_c = m_a + m_b, else 0, and the x integrand, a polynomial of
    degree <= 3*l_max - 1, is exact by Gauss-Legendre on the grid of band 2*l_max. So f is purely
    imaginary with one order per pair: f_abc = i S[a, b, l_c] at m_c = m_a + m_b, else 0. S is
    real, shaped (N, N, l_max + 1) with a and b the N = (l_max + 1)^2 rows of lm_pairs, exactly
    antisymmetric in a and b, and 0.0 where |m_a + m_b| > l_c.
    """
    if l_max <= 0:
        raise ValueError("l_max must be positive")
    N = (l_max + 1) ** 2
    out = np.zeros((N, N, l_max + 1))
    grid = grid_for_band_limit(2 * l_max)
    ls, ms = lm_pairs(l_max).T
    sign = np.where(ms < 0, _column_parity(l_max)[l_max + ms], 1.0)[:, None]  # Y_l,-m's (-1)^m
    # the P rows on the nodes x >= 0 and the P' rows from those of degrees l -/+ 1, a row
    # before and a row after (at l = m the row before is another order's, with factor 0)
    table, at = grid.P.reshape(-1, grid.P.shape[2]), _row(grid.P.shape[1] - 2, ls, abs(ms))
    steps = np.stack([-(ls + 1) * _alpha(ls, abs(ms)), ls * _alpha(ls + 1, abs(ms))])[..., None]
    south, x = grid.n_theta // 2, grid.x[grid.n_theta // 2:]
    rows = table[at], _x_derivative(table[at - 1], table[at + 1], steps) / (x * x - 1.0)
    # every node from x >= 0: P(-x) = (-1)^(l+m) P(x), and P' mirrors with the opposite sign
    flip = 1.0 - 2.0 * ((ls + ms) % 2)[:, None]
    P, dPdx = (sign * np.concatenate([s * flip * r[:, r.shape[1] - south:][:, ::-1], r], axis=1)
               for r, s in zip(rows, (1.0, -1.0)))
    weight, orders = 2.0 * math.pi * grid.w, ms[:, None] + ms
    for m in range(-l_max, l_max + 1):  # the pairs of order m against the P rows of order m
        a, b = np.nonzero(orders == m)
        T = ms[b, None] * (dPdx[a] * P[b]) - ms[a, None] * (dPdx[b] * P[a])  # [pair, node]
        out[a, b, abs(m):] = np.einsum("pj,cj->pc", T * weight, P[ms == m])
    return out


def _closure_residual(ts, brs):
    """Best single real constant of the triple ts, whose cyclic brackets
    {t1, t2}, {t2, t3}, {t3, t1} are brs, and the worst pair's residual."""
    thirds = ts[2], ts[0], ts[1]  # {t1, t2} closes onto t3, and cyclically
    c = float(np.mean([(br.inner(t) / t.inner(t).real).real for br, t in zip(brs, thirds)]))
    return c, max((br - c * t.pad_to(br.l_max)).norm() for br, t in zip(brs, thirds))


def su2_generators():
    """((t1, t2, t3), c, closure_residual, printed_residual): an l = 1
    generator triple, its measured closure constant and worst-pair residual.

    The printed basis (Y11 + i Y1-1)/sqrt(2), (Y11 - i Y1-1)/sqrt(2), Y10
    does not close: its pairwise bracket constants differ in phase, so no
    single real constant fits, and its residual is printed_residual. The
    triple returned is the standard real combinations that replace it. The
    cyclic brackets of both triples come from one brackets call.
    """
    y11 = HarmonicField.basis(1, 1)
    y1m1 = HarmonicField.basis(1, -1)
    y10 = HarmonicField.basis(1, 0)
    s = 1.0 / math.sqrt(2.0)
    printed = (s * (y11 + 1j * y1m1), s * (y11 - 1j * y1m1), y10)
    triple = (s * (y1m1 - y11), s * 1j * (y1m1 + y11), y10)
    brs = brackets([(ts[a], ts[b]) for ts in (printed, triple)
                    for a, b in ((0, 1), (1, 2), (2, 0))])
    c, residual = _closure_residual(triple, brs[3:])
    return triple, c, residual, _closure_residual(printed, brs[:3])[1]


@lru_cache(maxsize=None)
def _draw_map(l_max):
    """random_real_field's scatter at band l_max: per filled float slot, its flat index, its normal
    and its signed 0.6**l (Python's; numpy's power rounds some l apart). Degree l's normals from
    l^2 on are m = 0's, then (re, im) per m = 1..l; the l_max + 1 slots m = 0 come first, then
    slot m takes (re, im) / sqrt 2, and slot -m (-1)^m times its conjugate."""
    deg = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    j = np.arange(deg.size) - deg**2  # 0 at m = 0, then 2m - 1 (re) and 2m (im)
    paired = np.flatnonzero(j)
    take = np.concatenate((np.arange(l_max + 1) ** 2, paired, paired))
    side = np.repeat([1, 1, -1], [l_max + 1, paired.size, paired.size])
    deg, m, im = deg[take], (j[take] + 1) // 2, (j[take] > 0) & (j[take] % 2 == 0)
    sign = np.where(side > 0, 1.0, (-1.0) ** m * (1 - 2 * im))
    arrays = (deg * (4 * l_max + 2) + 2 * (l_max + side * m) + im, take,
              sign * np.array([0.6**l for l in range(l_max + 1)])[deg])
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def random_real_field(l_max, rng, amplitude=1.0):
    """Random real band-limited field whose spectrum decays like 0.6**l; one draw of normals."""
    at, take, power = _draw_map(l_max)
    c = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
    values = amplitude * power * rng.standard_normal((l_max + 1) ** 2)[take]
    values[l_max + 1:] /= math.sqrt(2.0)
    c.view(float).put(at, values)
    return HarmonicField(l_max, c)
