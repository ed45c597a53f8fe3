"""Flat-index tensor contractions used by the dimensional reduction checks.

Two computational routes are kept deliberately separate. The generalized
Kronecker delta contractions are literal signed permutation sums, one einsum
per permutation, and serve as the slow reference route. The trace forms are
the grouped expressions built from metric contractions. Identity suites
measure the ratio between the routes; nothing here assumes the identities
hold.

Index conventions: antisymmetric F carries two lower indices, v carries one
lower index.

Stack layout: the contraction kernels (`delta3`, `delta4`, `trace4`,
`eps`) work on a stack of nodes. F has shape (..., A, B), v has
shape (..., A) and the inverse metric (..., A, B); the leading axes
broadcast, and each kernel returns an array of the leading shape (a numpy
scalar for a single node). The reduction passes a sphere grid, with a
leading axis of five sphere-block scales on the inverse metric; the
identity suite a stack of draws. The suite draws each stack's raw normals
in four bulk calls and builds the stack's metrics with one stacked QR.

The kernels take the inverse metric g^{AB}, not g. The reduction's forward
scan evaluates the reference route with the sphere block of the inverse
metric scaled by t, down to t = 0, where that block is zero and no covariant
metric exists (the degenerate limit); every contraction here stays defined
there. Raising an index is one contraction with g^{AB}, and the epsilon
density factor 1/sqrt|det g| is sqrt|det g^{-1}|.
"""

from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "delta3",
    "delta4",
    "trace4",
    "eps",
    "epsilon_symbol",
    "born_infeld_density",
    "suite_dims",
    "identity_suite",
    "minkowski_metric",
]

# an identity suite stack holds at most this many rank-4 entries, d**4 per draw
_STACK_ENTRIES = 2**16


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _raise(F, ginv):
    """F^{AB} = g^{AP} g^{BQ} F_{PQ}."""
    return ginv @ F @ ginv.swapaxes(-1, -2)


def _raise_vector(v, ginv):
    """v^A = g^{AB} v_B."""
    return np.einsum("...ab,...b->...a", ginv, v)


def _signed_permutation_sum(low, up, k):
    """sum over permutations p of sign(p) low_{i1..ik} up_{ip(1)..ip(k)},
    contracting the last k axes: the rank-k generalized delta between the
    lowered and the raised factors."""
    idx = "abcd"[:k]
    total = 0.0
    for p in permutations(range(k)):
        sub = "".join(idx[i] for i in p)
        total = total + epsilon_symbol(k)[p] * np.einsum(f"...{idx},...{sub}->...", low, up)
    return total


def delta3(F, v, ginv):
    """Rank-3 generalized delta contracted with (F, v) on both index groups.

    delta^{ABC}_{DEF} F_{AB} v_C F^{DE} v^F, evaluated as the literal sum of
    six signed permutation terms.
    """
    low = np.einsum("...ab,...c->...abc", F, v)
    up = np.einsum("...ab,...c->...abc", _raise(F, ginv), _raise_vector(v, ginv))
    return _signed_permutation_sum(low, up, 3)


def delta4(F, ginv):
    """Rank-4 generalized delta contracted with four copies of F.

    delta^{ABCD}_{EFGH} F_{AB} F_{CD} F^{EF} F^{GH} as the literal sum of
    twenty-four signed permutation terms.
    """
    Fup = _raise(F, ginv)
    low = np.einsum("...ab,...cd->...abcd", F, F)
    up = np.einsum("...ab,...cd->...abcd", Fup, Fup)
    return _signed_permutation_sum(low, up, 4)


def _trace3_terms(F, v, ginv):
    """The two grouped rank-3 trace terms: (2 F_{AB} F^{AB} v_C v^C, -4 F^{AC} F_{AB} v^B v_C)."""
    Fup = _raise(F, ginv)
    vup = _raise_vector(v, ginv)
    s1 = np.einsum("...ab,...ab->...", F, Fup)
    s2 = np.einsum("...a,...a->...", v, vup)
    t2 = np.einsum("...ac,...ab,...b,...c->...", Fup, F, vup, v)
    return 2.0 * (s1 * s2), -4.0 * t2


def _trace4_terms(F, ginv):
    """The two terms of trace4: ((F_{AB} F^{AB})^2, -2 tr((g^{-1} F)^4))."""
    s1 = np.einsum("...ab,...ab->...", F, _raise(F, ginv))
    M = ginv @ F
    M2 = M @ M
    return s1 * s1, -2.0 * np.einsum("...ab,...ba->...", M2, M2)


def trace4(F, ginv):
    """Grouped form (F_{AB} F^{AB})^2 - 2 tr((g^{-1} F)^4)."""
    return np.add(*_trace4_terms(F, ginv))


def eps(F, w, ginv):
    """epsilon-tensor contraction with its density factor sqrt|det g^{-1}|:
    eps~^{ABC} F_{AB} v_C in n = 3 (w is a vector v), eps~^{ABCD} F_{AB}
    F_{CD} in n = 4 (w is a second F). Its square is a multiple of delta3
    or trace4; the identity suite measures the factor and its sign."""
    idx = "abcd"[: F.shape[-1]]
    raw = np.einsum(f"{idx},...ab,...{idx[2:]}->...", epsilon_symbol(len(idx)), F, w)
    return raw * np.sqrt(np.abs(np.linalg.det(ginv)))


@lru_cache(maxsize=None)
def epsilon_symbol(n):
    """Totally antisymmetric permutation symbol with n indices, entries in
    {-1, 0, +1}."""
    sym = np.zeros((n,) * n)
    for p in permutations(range(n)):
        sym[p] = _perm_sign(p)
    sym.setflags(write=False)
    return sym


def born_infeld_density(F, g, alpha, C):
    """(C / alpha^2) (sqrt(-det(g + alpha F)) - sqrt(-det g)) on a stack of
    nodes: F and the covariant metric g broadcast over their leading axes.

    Raises ValueError when either determinant argument leaves the root
    domain at any node, rather than continuing with a complex branch, and
    FloatingPointError when a determinant is not finite.
    """
    F = np.asarray(F, dtype=float)
    g = np.asarray(g, dtype=float)
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero; take the limit externally")
    d0 = -np.linalg.det(g)
    d1 = -np.linalg.det(g + alpha * F)
    if not (np.isfinite(d0).all() and np.isfinite(d1).all()):
        raise FloatingPointError("determinant is not finite (an overflow)")
    if np.any(d0 <= 0.0) or np.any(d1 <= 0.0):
        raise ValueError("determinant left the root domain")
    return C / alpha**2 * (np.sqrt(d1) - np.sqrt(d0))


def suite_dims(dims):
    """The sorted distinct dimensions of an identity suite: each at least 3,
    and 3 and 4 among them for the epsilon rows."""
    dims = tuple(sorted(set(int(d) for d in dims)))
    if any(d < 3 for d in dims):
        raise ValueError("dims must all be >= 3")
    if 3 not in dims or 4 not in dims:
        raise ValueError("dims must include 3 and 4 for the epsilon rows")
    return dims


def identity_suite(dims=(3, 4, 6), *, trials, rng, signature="euclidean"):
    """Measure the four route ratios over random draws.

    Each ratio is evaluated on `trials` accepted draws (split evenly over the
    admissible dimensions) of a random fixed-signature metric, antisymmetric
    F and vector v. Each stack of the draws still needed, at most
    _STACK_ENTRIES // d**4 of them, takes four bulk draws (the metrics'
    normal matrices and spectra, F, v), one stacked QR for its metrics and
    one run of each route. A draw is redrawn when the denominator route is
    at most 1e-3 of the trace form on |F|, |v| and |g^{-1}|, the summed
    magnitude of its elementary products before any of them cancel; below
    that the quotient would measure rounding instead of the identity. The
    redraw count is reported so the filtering is visible.
    """
    dims = suite_dims(dims)
    if signature not in ("euclidean", "lorentzian"):
        raise ValueError("signature must be 'euclidean' or 'lorentzian'")
    # ratio: (dimensions, trace-form terms, numerator route, denominator route
    # or None for the trace form); every route takes (F, v, ginv)
    plans = {
        "delta3_vs_trace3": (list(dims), _trace3_terms, delta3, None),
        "delta4_vs_trace4": ([d for d in dims if d >= 4], lambda F, v, ginv: _trace4_terms(F, ginv),
                             lambda F, v, ginv: delta4(F, ginv), None),
        "eps3_vs_delta3": ([3], _trace3_terms, lambda F, v, ginv: eps(F, v, ginv) ** 2, delta3),
        "eps4_vs_trace4": ([4], lambda F, v, ginv: _trace4_terms(F, ginv),
                           lambda F, v, ginv: eps(F, F, ginv) ** 2, None),
    }
    out = {}
    for name, (ds, terms, num_route, den_route) in plans.items():
        per = -(-trials // len(ds))
        vals, redraws = [], 0
        for d in ds:
            need, budget = per, 1000 * per
            while need:
                size = min(need, max(1, _STACK_ENTRIES // d**4), budget)
                if size == 0:
                    raise RuntimeError("draw filter rejected too many samples")
                A, spectrum = rng.standard_normal((size, d, d)), rng.uniform(0.5, 2.5, (size, d))
                F = rng.standard_normal((size, d, d)) / 2.0
                F, v = F - F.swapaxes(-1, -2), rng.standard_normal((size, d))
                ginv = np.linalg.inv(_metrics(A, spectrum, signature))
                a, b = terms(F, v, ginv)
                scale = sum(np.abs(t) for t in terms(np.abs(F), np.abs(v), np.abs(ginv)))
                den = a + b if den_route is None else den_route(F, v, ginv)
                keep = (scale != 0.0) & ~(np.abs(den) <= 1e-3 * scale)
                vals.append(num_route(F[keep], v[keep], ginv[keep]) / den[keep])
                budget -= size
                need -= vals[-1].size
                redraws += size - vals[-1].size
        arr = np.concatenate(vals)
        out[name] = {"mean": float(arr.mean()), "spread": float(arr.max() - arr.min()),
                     "draws": int(arr.size), "redraws": redraws}
    return out


def _metrics(A, spectrum, signature):
    """Well-conditioned random metrics with fixed signature, Q diag(spectrum)
    Q^T with Q from the QR of each normal matrix in A (..., n, n) and the
    spectrum (..., n) in [0.5, 2.5]. lorentzian negates the first eigenvalue,
    so det < 0 for any n."""
    Q, _ = np.linalg.qr(A)
    if signature == "lorentzian":
        spectrum = np.concatenate((-spectrum[..., :1], spectrum[..., 1:]), axis=-1)
    return (Q * spectrum[..., None, :]) @ Q.swapaxes(-1, -2)


def minkowski_metric(n):
    """diag(-1, 1, ..., 1)."""
    g = np.eye(n)
    g[0, 0] = -1.0
    return g
