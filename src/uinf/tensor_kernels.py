"""Flat-index tensor contractions used by the dimensional reduction checks.

Two computational routes are kept deliberately separate. The generalized
Kronecker delta contractions are literal signed permutation sums, one einsum
per permutation, and serve as the slow reference route. The trace forms are
the grouped expressions built from metric contractions. Identity suites
measure the ratio between the routes; nothing here assumes the identities
hold.

Index conventions: antisymmetric F carries two lower indices, v carries one
lower index.

Stack layout: the contraction kernels (`delta3`, `trace3`, `delta4`,
`trace4`, `eps`) work on a stack of nodes. F has shape (..., A, B), v has
shape (..., A) and the inverse metric (..., A, B); the leading axes
broadcast, and each kernel returns an array of the leading shape (a numpy
scalar for a single node). The reduction module calls them on a whole sphere
grid at once; the identity suite calls them on one node per draw.

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
    "trace3",
    "delta4",
    "trace4",
    "eps",
    "epsilon_symbol",
    "born_infeld_density",
    "suite_dims",
    "identity_suite",
    "random_antisymmetric",
    "random_metric",
    "minkowski_metric",
]


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
        total = total + _perm_sign(p) * np.einsum(f"...{idx},...{sub}->...", low, up)
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


def _trace3_pieces(F, v, ginv):
    """(F_{AB} F^{AB} v_C v^C, F^{AC} F_{AB} v^B v_C)."""
    Fup = _raise(F, ginv)
    vup = _raise_vector(v, ginv)
    s1 = np.einsum("...ab,...ab->...", F, Fup)
    s2 = np.einsum("...a,...a->...", v, vup)
    t2 = np.einsum("...ac,...ab,...b,...c->...", Fup, F, vup, v)
    return s1 * s2, t2


def trace3(F, v, ginv):
    """Grouped form 2 (F_{AB} F^{AB} v_C v^C - 2 F^{AC} F_{AB} v^B v_C)."""
    s12, t2 = _trace3_pieces(F, v, ginv)
    return 2.0 * (s12 - 2.0 * t2)


def _trace4_pieces(F, ginv):
    """(F_{AB} F^{AB}, tr((g^{-1} F)^4))."""
    s1 = np.einsum("...ab,...ab->...", F, _raise(F, ginv))
    M = ginv @ F
    M2 = M @ M
    return s1, np.einsum("...ab,...ba->...", M2, M2)


def trace4(F, ginv):
    """Grouped form (F_{AB} F^{AB})^2 - 2 tr((g^{-1} F)^4)."""
    s1, t4 = _trace4_pieces(F, ginv)
    return s1 * s1 - 2.0 * t4


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


def born_infeld_density(F, g, alpha, C=1.0):
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


def identity_suite(dims=(3, 4, 6), trials=500, rng=None, signature="euclidean"):
    """Measure the four route ratios over random draws.

    Each ratio is evaluated on `trials` accepted draws (split evenly over the
    admissible dimensions) of a random antisymmetric F, random v, and a
    random fixed-signature metric. A draw is redrawn when the denominator
    route is smaller than 1e-3 of its natural magnitude scale; at that point
    the quotient measures rounding noise instead of the identity. The redraw
    count is reported alongside mean and spread so the filtering is visible.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    dims = suite_dims(dims)
    # ratio: (dimensions, numerator route, denominator route); the rank-3
    # routes contract F with a vector v, the rank-4 routes F with itself
    plans = {
        "delta3_vs_trace3": (list(dims), delta3, trace3),
        "delta4_vs_trace4": ([d for d in dims if d >= 4], delta4, trace4),
        "eps3_vs_delta3": ([3], lambda F, v, ginv: eps(F, v, ginv) ** 2, delta3),
        "eps4_vs_trace4": ([4], lambda F, ginv: eps(F, F, ginv) ** 2, trace4),
    }
    floor = 1e-3
    out = {}
    for name, (ds, num_route, den_route) in plans.items():
        rank3 = den_route in (trace3, delta3)
        per = -(-trials // len(ds))
        vals = []
        redraws = 0
        for d in ds:
            got = 0
            attempts = 0
            while got < per:
                attempts += 1
                if attempts > 1000 * per:
                    raise RuntimeError("draw filter rejected too many samples")
                g = random_metric(d, rng, signature)
                F = random_antisymmetric(d, rng)
                v = rng.standard_normal(d)
                ginv = np.linalg.inv(g)
                if rank3:
                    s12, t2 = _trace3_pieces(F, v, ginv)
                    scale = 2.0 * abs(s12) + 4.0 * abs(t2)
                    route_args = (F, v, ginv)
                else:
                    s1, t4 = _trace4_pieces(F, ginv)
                    scale = s1 * s1 + 2.0 * abs(t4)
                    route_args = (F, ginv)
                den = den_route(*route_args)
                if scale == 0.0 or abs(den) <= floor * scale:
                    redraws += 1
                    continue
                vals.append(num_route(*route_args) / den)
                got += 1
        arr = np.asarray(vals)
        out[name] = {
            "mean": float(arr.mean()),
            "spread": float(arr.max() - arr.min()),
            "draws": int(arr.size),
            "redraws": redraws,
        }
    return out


def random_antisymmetric(n, rng, scale=1.0):
    """Antisymmetric matrix A - A^T from iid normals; exactly antisymmetric
    in floating point."""
    A = rng.standard_normal((n, n)) * (scale / 2.0)
    return A - A.T


def random_metric(n, rng, signature="euclidean"):
    """Well-conditioned random metric with fixed signature.

    euclidean: all eigenvalues in [0.5, 2.5]. lorentzian: same spectrum with
    the first eigenvalue negated, so det < 0 for any n.
    """
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    d = rng.uniform(0.5, 2.5, size=n)
    if signature == "lorentzian":
        d[0] = -d[0]
    elif signature != "euclidean":
        raise ValueError("signature must be 'euclidean' or 'lorentzian'")
    return (Q * d) @ Q.T


def minkowski_metric(n):
    """diag(-1, 1, ..., 1)."""
    g = np.eye(n)
    g[0, 0] = -1.0
    return g
