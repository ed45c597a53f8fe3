"""Flat-index tensor contractions used by the dimensional reduction checks.

Two computational routes are kept deliberately separate. The generalized
Kronecker delta contractions are literal signed permutation sums, one einsum
per permutation, and serve as the slow reference route. The trace forms are
the grouped expressions built from metric contractions. Identity suites
measure the ratio between the routes; nothing here assumes the identities
hold.

Index conventions: antisymmetric F carries two lower indices, v carries one
lower index, and metric g is the covariant metric. Raising always goes
through explicit contractions with inv(g).
"""

from functools import lru_cache
from itertools import permutations
import math

import numpy as np

__all__ = [
    "raise_two",
    "raise_one",
    "delta_contract_scalar",
    "trace_form_scalar",
    "delta_contract_quartic",
    "trace_form_quartic",
    "epsilon_symbol",
    "eps_contract_fv",
    "eps_contract_ff",
    "eps_square_3d",
    "eps_square_4d",
    "born_infeld_density",
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


def raise_two(F, g):
    """F^{AB} = g^{AP} g^{BQ} F_{PQ}."""
    ginv = np.linalg.inv(g)
    return ginv @ F @ ginv.T


def raise_one(v, g):
    """v^A = g^{AB} v_B."""
    return np.linalg.inv(g) @ v


def delta_contract_scalar(F, v, g):
    """Rank-3 generalized delta contracted with (F, v) on both index groups.

    delta^{ABC}_{DEF} F_{AB} v_C F^{DE} v^F, evaluated as the literal sum of
    six signed permutation terms.
    """
    F = np.asarray(F, dtype=float)
    v = np.asarray(v, dtype=float)
    Fup = raise_two(F, g)
    vup = raise_one(v, g)
    low = np.einsum("ab,c->abc", F, v)
    up = np.einsum("ab,c->abc", Fup, vup)
    total = 0.0
    for p in permutations(range(3)):
        sub = "".join("abc"[i] for i in p)
        total += _perm_sign(p) * np.einsum(f"abc,{sub}->", low, up)
    return float(total)


def trace_form_scalar(F, v, g):
    """Grouped form 2 (F_{AB} F^{AB} v_C v^C - 2 F^{AC} F_{AB} v^B v_C)."""
    F = np.asarray(F, dtype=float)
    v = np.asarray(v, dtype=float)
    Fup = raise_two(F, g)
    vup = raise_one(v, g)
    s1 = np.einsum("ab,ab->", F, Fup)
    s2 = float(v @ vup)
    t2 = np.einsum("ac,ab,b,c->", Fup, F, vup, v)
    return float(2.0 * (s1 * s2 - 2.0 * t2))


def delta_contract_quartic(F, g):
    """Rank-4 generalized delta contracted with four copies of F.

    delta^{ABCD}_{EFGH} F_{AB} F_{CD} F^{EF} F^{GH} as the literal sum of
    twenty-four signed permutation terms.
    """
    F = np.asarray(F, dtype=float)
    Fup = raise_two(F, g)
    low = np.einsum("ab,cd->abcd", F, F)
    up = np.einsum("ab,cd->abcd", Fup, Fup)
    total = 0.0
    for p in permutations(range(4)):
        sub = "".join("abcd"[i] for i in p)
        total += _perm_sign(p) * np.einsum(f"abcd,{sub}->", low, up)
    return float(total)


def trace_form_quartic(F, g):
    """Grouped form (F_{AB} F^{AB})^2 - 2 tr((g^{-1} F)^4)."""
    F = np.asarray(F, dtype=float)
    Fup = raise_two(F, g)
    s1 = np.einsum("ab,ab->", F, Fup)
    M = np.linalg.inv(g) @ F
    M2 = M @ M
    return float(s1 * s1 - 2.0 * np.trace(M2 @ M2))


@lru_cache(maxsize=None)
def epsilon_symbol(n):
    """Totally antisymmetric permutation symbol with n indices, entries in
    {-1, 0, +1}."""
    eps = np.zeros((n,) * n)
    for p in permutations(range(n)):
        eps[p] = _perm_sign(p)
    eps.setflags(write=False)
    return eps


def eps_contract_fv(F, v, g):
    """epsilon-tensor contraction eps~^{ABC} F_{AB} v_C with the explicit
    1/sqrt(|det g|) density factor."""
    eps = epsilon_symbol(3)
    raw = np.einsum("abc,ab,c->", eps, np.asarray(F, dtype=float), np.asarray(v, dtype=float))
    return float(raw / math.sqrt(abs(np.linalg.det(g))))


def eps_contract_ff(F, g):
    """epsilon-tensor contraction eps~^{ABCD} F_{AB} F_{CD} with the explicit
    1/sqrt(|det g|) density factor."""
    eps = epsilon_symbol(4)
    F = np.asarray(F, dtype=float)
    raw = np.einsum("abcd,ab,cd->", eps, F, F)
    return float(raw / math.sqrt(abs(np.linalg.det(g))))


def eps_square_3d(F, v, g):
    """Square of the rank-3 epsilon contraction. Equals the rank-3 delta
    contraction up to a metric-signature sign, which the identity suite
    measures rather than assumes."""
    return eps_contract_fv(F, v, g) ** 2


def eps_square_4d(F, g):
    """Square of the rank-4 epsilon contraction; compared against the quartic
    trace form by the identity suite."""
    return eps_contract_ff(F, g) ** 2


def born_infeld_density(F, g, alpha, C=1.0):
    """(C / alpha^2) (sqrt(-det(g + alpha F)) - sqrt(-det g)).

    Raises ValueError when either determinant argument leaves the root
    domain, rather than continuing with a complex branch.
    """
    F = np.asarray(F, dtype=float)
    g = np.asarray(g, dtype=float)
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero; take the limit externally")
    d0 = -np.linalg.det(g)
    d1 = -np.linalg.det(g + alpha * F)
    if d0 <= 0.0 or d1 <= 0.0:
        raise ValueError("determinant left the root domain")
    return float(C / alpha**2 * (math.sqrt(d1) - math.sqrt(d0)))


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
    dims = tuple(sorted(set(int(d) for d in dims)))
    if any(d < 3 for d in dims):
        raise ValueError("dims must all be >= 3")
    if 3 not in dims or 4 not in dims:
        raise ValueError("dims must include 3 and 4 for the epsilon rows")
    # ratio: (dimensions, numerator route, denominator route); the rank-3
    # routes contract F with a vector v, the rank-4 routes F with itself
    plans = {
        "delta3_vs_trace3": (list(dims), delta_contract_scalar, trace_form_scalar),
        "delta4_vs_trace4": ([d for d in dims if d >= 4], delta_contract_quartic,
                             trace_form_quartic),
        "eps3_vs_delta3": ([3], eps_square_3d, delta_contract_scalar),
        "eps4_vs_trace4": ([4], eps_square_4d, trace_form_quartic),
    }
    floor = 1e-3
    out = {}
    for name, (ds, num_route, den_route) in plans.items():
        rank3 = den_route in (trace_form_scalar, delta_contract_scalar)
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
                Fup = ginv @ F @ ginv.T
                s1 = float(np.einsum("ab,ab->", F, Fup))
                if rank3:
                    vup = ginv @ v
                    s2 = float(v @ vup)
                    t2 = float(np.einsum("ac,ab,b,c->", Fup, F, vup, v))
                    scale = 2.0 * abs(s1 * s2) + 4.0 * abs(t2)
                    route_args = (F, v, g)
                else:
                    M = ginv @ F
                    M2 = M @ M
                    scale = s1 * s1 + 2.0 * abs(float(np.trace(M2 @ M2)))
                    route_args = (F, g)
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
