"""Band-limited function algebra on the unit two-sphere.

Fields live in the orthonormal complex harmonic basis (Condon-Shortley
phase). Synthesis, analysis, and the area-preserving bracket

    {f, g} = df/d(cos theta) dg/dphi - df/dphi dg/d(cos theta)

are exact for band-limited inputs on Gauss-Legendre x uniform-phi grids sized
by the rules in grid_for_band_limit. Nodes never sit on the poles, so the
1/sin(theta) factors that appear in coordinate derivatives stay finite.
"""

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
    "Su2Generators",
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
    "lm_index",
]


def _legendre_tables(l_max, x):
    """Normalized associated Legendre values and x-derivatives.

    Returns (P, dPdx), each shaped (l_max+1, l_max+1, len(x)), indexed
    [l, m, node] for 0 <= m <= l. Normalization is such that
    Y_lm = P[l, m] * exp(i m phi) is orthonormal on the sphere, with the
    Condon-Shortley sign folded in.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    P = np.zeros((l_max + 1, l_max + 1, n))
    sin_theta = np.sqrt(1.0 - x * x)
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        P[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * P[m - 1, m - 1]
    m = np.arange(l_max)
    P[m + 1, m] = np.sqrt(2.0 * m + 3.0)[:, None] * x * P[m, m]
    dPdx = np.zeros_like(P)
    denom = x * x - 1.0
    # one pass per degree over all its orders: the recurrence fills m <= l - 2
    # from the two degrees below, then dPdx takes the whole row m <= l
    for l in range(1, l_max + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        P[l, :l - 1] = a * (x * P[l - 1, :l - 1] - b * P[l - 2, :l - 1])
        m = np.arange(l)
        c = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0))[:, None]
        upper = l * x * P[l, :l + 1]
        upper[:l] -= c * P[l - 1, :l]
        dPdx[l, :l + 1] = upper / denom
    return P, dPdx


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature grid: Gauss-Legendre in x = cos(theta), uniform in phi.

    Integration is exact for integrands of harmonic band <= 2*band_limit;
    analysis is exact for fields of band <= band_limit. trig[m] holds
    (cos(m phi), -sin(m phi)) for 0 <= m <= band_limit, so that
    Re(a exp(i m phi)) = (Re a, Im a) . trig[m]. w2d holds the quadrature
    weights on the (theta, phi) product grid; they sum to 4 pi.
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
    dPdx: np.ndarray = field(repr=False)
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
    P, dPdx = _legendre_tables(band_limit, x)
    m_phi = np.outer(np.arange(band_limit + 1), phi)
    trig = np.stack([np.cos(m_phi), -np.sin(m_phi)], axis=1)
    arrays = (x, w, phi, np.sqrt(1.0 - x * x), w2d, P, dPdx, trig)
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
        if np.any(c[_outside_band(self.l_max)]):
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

    def __neg__(self):
        return HarmonicField(self.l_max, -self.coeffs)

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


def _real_parts(fields, grid):
    """Split each of a list of fields of one band limit, f = h1 + i h2, into
    real fields; h1 = (c + c~)/2, h2 = (c - c~)/2i.

    Returns the m >= 0 coefficients of every h1, then of every nonzero h2,
    as (re, im) pairs shaped (parts, l, m, 2), with m > 0 doubled for the
    one-sided cos/sin sum, and the mask of fields with a nonzero h2. Exactly
    Hermitian coefficients give h2 == 0, so real fields keep real values.
    """
    L = fields[0].l_max
    if grid.band_limit < L:
        raise ValueError("grid too coarse for band limit")
    coeffs = np.array([f.coeffs for f in fields])
    c, mirror = coeffs[..., L:], _mirror(coeffs, L)[..., L:]
    weight = np.where(np.arange(L + 1) > 0, 1.0, 0.5)
    h2 = (c - mirror) * weight
    cplx = h2.any(axis=(1, 2))
    parts = (c + mirror) * weight
    if cplx.any():
        parts = np.concatenate([parts, h2[cplx] / 1j])
    return np.stack([parts.real, parts.imag], axis=-1), cplx


def _sum_over_l(parts, table):
    """Order amplitudes per node: sum over l of parts against a Legendre
    table, one matrix product per order m; shape (parts, n_theta, m, 2)."""
    k, M = parts.shape[:2]
    per_m = table[:M, :M].transpose(1, 2, 0) @ parts.transpose(2, 1, 0, 3).reshape(M, M, 2 * k)
    return per_m.reshape(M, -1, k, 2).transpose(2, 1, 0, 3)


def _sum_over_m(amps, grid, cplx):
    """Grid values sum_m Re(a_m exp(i m phi)) of the parts of _real_parts,
    per field: h1, or h1 + i h2 where cplx marks it (the stack is complex)."""
    k, n, M, _ = amps.shape
    vals = amps.reshape(k, n, 2 * M) @ grid.trig[:M].reshape(2 * M, grid.n_phi)
    if not cplx.any():
        return vals
    out = vals[:len(cplx)].astype(complex)
    out[cplx] += 1j * vals[len(cplx):]
    return out


def _gradients(fields, grid):
    """grad_values of fields of one band limit, stacked, and their cplx mask."""
    parts, cplx = _real_parts(fields, grid)
    amps = _sum_over_l(parts, grid.P)
    # d/dphi turns a_m into i m a_m: (re, im) -> m (-im, re)
    dphi = amps[..., ::-1] * (np.arange(amps.shape[2])[:, None] * [-1.0, 1.0])
    dx = _sum_over_m(_sum_over_l(parts, grid.dPdx), grid, cplx)
    return dx, _sum_over_m(dphi, grid, cplx), cplx


def _values(fields, grid):
    """Grid values of fields of one band limit, stacked, and their cplx mask."""
    parts, cplx = _real_parts(fields, grid)
    return _sum_over_m(_sum_over_l(parts, grid.P), grid, cplx), cplx


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
    """Coefficients (fields, l, 2L+1) of a stack of grid values, each as by analyze."""
    if values.shape[1:] != (grid.n_theta, grid.n_phi):
        raise ValueError("value array does not match the grid")
    if not np.isfinite(values).all():
        raise FloatingPointError("grid values to analyze are not all finite (an overflow)")
    if grid.band_limit < L:
        raise ValueError("grid too coarse for band limit")
    cplx = np.iscomplexobj(values)
    parts = np.stack([values.real, values.imag], 1).reshape(-1, *grid.w2d.shape) if cplx else values
    k, M = len(parts), L + 1
    trig = grid.trig[:M].reshape(2 * M, grid.n_phi)
    F = (parts @ trig.T).reshape(k, grid.n_theta, M, 2)
    F *= (2.0 * math.pi / grid.n_phi) * grid.w[:, None, None]
    per_m = grid.P[:M, :M].transpose(1, 0, 2) @ F.transpose(2, 1, 0, 3).reshape(M, grid.n_theta, -1)
    pairs = per_m.reshape(M, M, k, 2).transpose(2, 1, 0, 3)
    half = pairs[..., 0] + 1j * pairs[..., 1]
    neg = _column_parity(L)[:L] * half[..., :0:-1].conj()
    coeffs = np.concatenate([neg, half], axis=-1)
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
    """[bracket(f, g) for f, g in pairs], bitwise. Per result band limit, the
    gradients of each distinct field (by identity) are taken once, in one
    stacked call per field band limit, and the products are analyzed in one
    stacked call (two when real and complex products mix)."""
    out = [None] * len(pairs)
    for L in {f.l_max + g.l_max for f, g in pairs}:
        idx = [i for i, (f, g) in enumerate(pairs) if f.l_max + g.l_max == L]
        grid = grid_for_band_limit(L)
        fields = list({id(h): h for i in idx for h in pairs[i]}.values())
        gx, gp, cplx = _by_band(_gradients, fields, grid)
        row = {id(h): r for r, h in enumerate(fields)}
        f, g = np.array([[row[id(h)] for h in pairs[i]] for i in idx]).T
        vals, real = gx[f] * gp[g] - gp[f] * gx[g], ~(cplx[f] | cplx[g])
        for sel, v in ((real, vals[real].real), (~real, vals[~real])):
            for i, c in zip(np.array(idx)[sel], _analyze(v, L, grid)):
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


def lm_index(l, m):
    """Flat index of the (l, m) pair: l^2 + l + m."""
    return l * l + l + m


def structure_constants(l_max):
    """f_abc = integral {Y_a, Y_b} conj(Y_c) for all triples within l_max.

    Each integral is one quadrature on the grid of band 2*l_max, exact up to
    band 4*l_max while the integrand has band at most 3*l_max - 1, so every
    basis harmonic is transformed once. Returned tensor is indexed by
    lm_index and exactly antisymmetric in the first two slots (filled from
    the a < b computation); entries with m_c != m_a + m_b are exact zeros.
    """
    if l_max <= 0:
        raise ValueError("l_max must be positive")
    N = (l_max + 1) ** 2
    out = np.zeros((N, N, N), dtype=complex)
    grid = grid_for_band_limit(2 * l_max)
    labels = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    basis = [HarmonicField.basis(l, m) for l, m in labels]
    ms = np.array([m for _, m in labels])
    gx, gp = (g.reshape(N, -1) for g in gradients(basis, grid))
    conj_w = (synthesize(basis, grid).conj() * grid.w2d).reshape(N, -1)
    for a in range(1, N):  # pairs a < b; the l = 0 row and column stay zero
        row = (gx[a] * gp[a + 1:] - gp[a] * gx[a + 1:]) @ conj_w.T
        # only order m_a + m_b is nonzero; the other orders are rounding noise
        out[a, a + 1:] = np.where(ms[a] + ms[a + 1:, None] == ms, row, 0.0)
        out[a + 1:, a] = -out[a, a + 1:]
    return out


@dataclass(frozen=True)
class Su2Generators:
    """Three l = 1 fields closing under the bracket with one real constant."""

    t1: HarmonicField
    t2: HarmonicField
    t3: HarmonicField
    c: float
    closure_residual: float
    basis: str
    printed_residual: float
    substituted: bool

    def as_tuple(self):
        return (self.t1, self.t2, self.t3)


def _closure_residual(ts):
    """Best single real constant and the worst-pair residual for the triple."""
    cycles = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    brs = brackets([(ts[a], ts[b]) for a, b, _ in cycles])
    projections = []
    for (a, b, c), br in zip(cycles, brs):
        tc = ts[c]
        projections.append(br.inner(tc) / tc.inner(tc).real)
    c_shared = float(np.mean([p.real for p in projections]))
    residual = 0.0
    for (a, b, c), br in zip(cycles, brs):
        diff = br - c_shared * ts[c].pad_to(br.l_max)
        residual = max(residual, diff.norm())
    return c_shared, residual


def su2_generators():
    """l = 1 generator triple with a measured closure constant.

    The printed basis (Y11 + i Y1-1)/sqrt(2), (Y11 - i Y1-1)/sqrt(2), Y10
    does not close: its pairwise bracket constants differ in phase, so no
    single real constant fits, and its residual is reported as
    printed_residual. The standard real combinations are substituted, and
    the `basis`/`substituted` fields say so.
    """
    y11 = HarmonicField.basis(1, 1)
    y1m1 = HarmonicField.basis(1, -1)
    y10 = HarmonicField.basis(1, 0)
    s = 1.0 / math.sqrt(2.0)
    _, r_printed = _closure_residual((s * (y11 + 1j * y1m1), s * (y11 - 1j * y1m1), y10))
    real_basis = (s * (y1m1 - y11), s * 1j * (y1m1 + y11), y10)
    c_real, r_real = _closure_residual(real_basis)
    return Su2Generators(*real_basis, c=c_real, closure_residual=r_real,
                         basis="real_combination", printed_residual=r_printed,
                         substituted=True)


def random_real_field(l_max, rng, amplitude=1.0):
    """Random real band-limited field whose spectrum decays like 0.6**l."""
    c = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
    for l in range(l_max + 1):
        scale = amplitude * 0.6**l
        c[l, l_max] = scale * rng.standard_normal()
        for m in range(1, l + 1):
            z = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            c[l, l_max + m] = z
            c[l, l_max - m] = (-1.0) ** m * z.conjugate()
    return HarmonicField(l_max, c)
