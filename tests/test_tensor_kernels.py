from itertools import permutations
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from uinf import tensor_kernels
from uinf.tensor_kernels import (
    born_infeld_density,
    delta3,
    delta4,
    eps,
    epsilon_symbol,
    identity_suite,
    minkowski_metric,
    trace4,
)


def trace3(F, v, ginv):
    """Grouped form 2 (F_{AB} F^{AB} v_C v^C - 2 F^{AC} F_{AB} v^B v_C)."""
    return np.add(*tensor_kernels._trace3_terms(F, v, ginv))


QUARTIC_RATIO = 8.0
ROUTE_CONSTANTS = {
    "euclidean": {"delta3_vs_trace3": 1.0, "delta4_vs_trace4": 8.0,
                  "eps3_vs_delta3": 1.0, "eps4_vs_trace4": 8.0},
    "lorentzian": {"delta3_vs_trace3": 1.0, "delta4_vs_trace4": 8.0,
                   "eps3_vs_delta3": -1.0, "eps4_vs_trace4": -8.0},
}


def metric_from(A, d, signature):
    """Q diag(d) Q^T with Q from the QR of the normal matrix A; lorentzian
    negates the first eigenvalue, so det < 0 for any n."""
    Q, _ = np.linalg.qr(A)
    d = np.array(d)
    if signature == "lorentzian":
        d[0] = -d[0]
    elif signature != "euclidean":
        raise ValueError("signature must be 'euclidean' or 'lorentzian'")
    return (Q * d) @ Q.T


def random_metric(n, rng, signature):
    """Well-conditioned random metric with fixed signature: euclidean has
    all eigenvalues in [0.5, 2.5], lorentzian the same spectrum with the
    first eigenvalue negated."""
    A = rng.standard_normal((n, n))
    return metric_from(A, rng.uniform(0.5, 2.5, size=n), signature)


def random_antisymmetric(n, rng):
    """Antisymmetric matrix A - A^T from iid normals; exactly antisymmetric
    in floating point."""
    A = rng.standard_normal((n, n)) / 2.0
    return A - A.T


def test_worked_scalar_example():
    """Unit field strengths on two index pairs and a unit vector give 4."""
    F = np.zeros((3, 3))
    F[0, 1] = 1.0
    F[1, 0] = -1.0
    F[1, 2] = 1.0
    F[2, 1] = -1.0
    v = np.array([0.0, 0.0, 1.0])
    ginv = np.linalg.inv(np.eye(3))
    assert delta3(F, v, ginv) == pytest.approx(4.0, abs=1e-14)
    assert trace3(F, v, ginv) == pytest.approx(4.0, abs=1e-14)


def test_block_diagonal_quartic_example():
    """F with only F01 = a and F23 = b blocks, euclidean metric."""
    a, b = 0.7, -1.3
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = a, -a
    F[2, 3], F[3, 2] = b, -b
    ginv = np.linalg.inv(np.eye(4))
    tr = trace4(F, ginv)
    assert tr == pytest.approx(8.0 * a**2 * b**2, rel=1e-13)
    assert delta4(F, ginv) == pytest.approx(QUARTIC_RATIO * tr, rel=1e-13)
    assert eps(F, F, ginv) ** 2 == pytest.approx(64.0 * a**2 * b**2, rel=1e-13)


def test_epsilon_symbol_entries():
    e3 = epsilon_symbol(3)
    assert e3[0, 1, 2] == 1.0
    assert e3[1, 0, 2] == -1.0
    assert e3[0, 0, 2] == 0.0
    e4 = epsilon_symbol(4)
    assert e4[0, 1, 2, 3] == 1.0
    assert e4[1, 0, 2, 3] == -1.0
    assert not e3.flags.writeable


def _inversion_sign(p):
    """(-1) to the number of inverted pairs of the permutation p."""
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def _signed_sum_oracle(low, up, k):
    """The rank-k generalized delta between low and up, each permutation's
    sign counted from its inversions."""
    idx = "abcd"[:k]
    total = 0.0
    for p in permutations(range(k)):
        sub = "".join(idx[i] for i in p)
        total = total + _inversion_sign(p) * np.einsum(f"...{idx},...{sub}->...", low, up)
    return total


@pytest.mark.parametrize("signature", ["euclidean", "lorentzian"])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_generalized_deltas_equal_an_inversion_count_oracle(d, signature):
    """The deltas read their signs from the epsilon table; they equal the
    same sums with the signs counted from inversions, bit for bit."""
    rng = np.random.default_rng(d)
    ginv = np.linalg.inv([random_metric(d, rng, signature) for _ in range(20)])
    F = np.array([random_antisymmetric(d, rng) for _ in range(20)])
    v = rng.standard_normal((20, d))
    Fup = ginv @ F @ ginv.swapaxes(-1, -2)
    vup = np.einsum("...ab,...b->...a", ginv, v)
    low3 = np.einsum("...ab,...c->...abc", F, v)
    up3 = np.einsum("...ab,...c->...abc", Fup, vup)
    assert np.array_equal(delta3(F, v, ginv), _signed_sum_oracle(low3, up3, 3))
    low4 = np.einsum("...ab,...cd->...abcd", F, F)
    up4 = np.einsum("...ab,...cd->...abcd", Fup, Fup)
    assert np.array_equal(delta4(F, ginv), _signed_sum_oracle(low4, up4, 4))


def test_identity_suite_euclidean_seed0():
    suite = identity_suite(dims=(3, 4, 6), trials=500, rng=np.random.default_rng(0))
    means = {
        "delta3_vs_trace3": 1.0,
        "delta4_vs_trace4": 8.0,
        "eps3_vs_delta3": 1.0,
        "eps4_vs_trace4": 8.0,
    }
    for name, expected in means.items():
        row = suite[name]
        assert row["draws"] >= 500
        assert abs(row["mean"] - expected) < 1e-10
        assert row["spread"] < 1e-10


def test_identity_suite_lorentzian_signs():
    suite = identity_suite(
        dims=(3, 4, 5), trials=300, rng=np.random.default_rng(1), signature="lorentzian"
    )
    assert abs(suite["delta3_vs_trace3"]["mean"] - 1.0) < 1e-10
    assert abs(suite["delta4_vs_trace4"]["mean"] - 8.0) < 1e-10
    assert abs(suite["eps3_vs_delta3"]["mean"] + 1.0) < 1e-10
    assert abs(suite["eps4_vs_trace4"]["mean"] + 8.0) < 1e-10


def test_eps_ratio_tracks_metric_determinant_sign():
    rng = np.random.default_rng(8)
    for signature in ("euclidean", "lorentzian"):
        for _ in range(10):
            g = random_metric(3, rng, signature=signature)
            F = random_antisymmetric(3, rng)
            v = rng.standard_normal(3)
            ginv = np.linalg.inv(g)
            lhs = eps(F, v, ginv) ** 2
            rhs = delta3(F, v, ginv)
            s = np.sign(np.linalg.det(g))
            assert lhs == pytest.approx(s * rhs, rel=1e-9, abs=1e-12)


def test_random_metric_signatures():
    rng = np.random.default_rng(5)
    ge = random_metric(4, rng, "euclidean")
    ev = np.linalg.eigvalsh(ge)
    assert np.all(ev > 0)
    gl = random_metric(4, rng, signature="lorentzian")
    ev = np.sort(np.linalg.eigvalsh(gl))
    assert ev[0] < 0 and np.all(ev[1:] > 0)


def _raw_metric_draws(d, size, rng):
    """The normal matrices and spectra of `size` metric draws, taken in the
    per-draw metric's order."""
    A, spectrum = zip(*[(rng.standard_normal((d, d)), rng.uniform(0.5, 2.5, size=d))
                        for _ in range(size)])
    return np.array(A), np.array(spectrum)


@pytest.mark.parametrize("signature", ["euclidean", "lorentzian"])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_stacked_metrics_equal_the_per_draw_metric(d, signature):
    """One stacked QR gives the per-draw metrics bit for bit, at the stack
    sizes the identity suite uses (809, 256 and 50)."""
    size = tensor_kernels._STACK_ENTRIES // d**4
    rng = np.random.default_rng(d)
    expected = np.array([random_metric(d, rng, signature) for _ in range(size)])
    A, spectrum = _raw_metric_draws(d, size, np.random.default_rng(d))
    assert np.array_equal(tensor_kernels._metrics(A, spectrum, signature), expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), d=st.integers(min_value=3, max_value=8),
       size=st.integers(min_value=1, max_value=64),
       signature=st.sampled_from(["euclidean", "lorentzian"]))
def test_stacked_metrics_have_the_drawn_spectrum_and_signature(seed, d, size, signature):
    A, spectrum = _raw_metric_draws(d, size, np.random.default_rng(seed))
    g = tensor_kernels._metrics(A, spectrum, signature)
    assert g.shape == (size, d, d)
    scale = np.abs(g).max(axis=(-1, -2), keepdims=True)
    assert np.all(np.abs(g - g.swapaxes(-1, -2)) <= 1e-14 * scale)
    ev = np.linalg.eigvalsh(g)
    assert np.all((np.abs(ev) >= 0.5 - 1e-12) & (np.abs(ev) <= 2.5 + 1e-12))
    np.testing.assert_allclose(np.sort(np.abs(ev)), np.sort(spectrum), rtol=0, atol=1e-12)
    negative = (ev < 0).sum(axis=-1)
    assert np.all(negative == (1 if signature == "lorentzian" else 0))


def test_identity_suite_checks_the_signature_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="signature must be 'euclidean' or 'lorentzian'"):
        identity_suite(dims=(3, 4), trials=10, rng=rng, signature="minkowski")
    assert rng.bit_generator.state == state


def test_random_antisymmetric_shape():
    rng = np.random.default_rng(5)
    F = random_antisymmetric(5, rng)
    np.testing.assert_allclose(F, -F.T, atol=0)
    assert np.all(np.diag(F) == 0)


def test_minkowski_metric_convention():
    g = minkowski_metric(4)
    np.testing.assert_array_equal(np.diag(g), [-1.0, 1.0, 1.0, 1.0])


def test_born_infeld_density_weak_field_limit():
    """For small F the density approaches the quadratic trace form."""
    rng = np.random.default_rng(2)
    g = minkowski_metric(4)
    F = 1e-3 * random_antisymmetric(4, rng)
    alpha = 0.3
    dens = born_infeld_density(F, g, alpha, C=1.0)
    ginv = np.linalg.inv(g)
    quad = 0.25 * np.einsum("ab,cd,ac,bd->", F, F, ginv, ginv)
    assert dens == pytest.approx(quad, rel=1e-5)


def test_born_infeld_density_rejects_bad_inputs():
    g = minkowski_metric(4)
    F = np.zeros((4, 4))
    with pytest.raises(ValueError):
        born_infeld_density(F, g, 0.0, C=1.0)
    strong = random_antisymmetric(4, np.random.default_rng(0)) * 100.0
    with pytest.raises(ValueError):
        born_infeld_density(strong, g, 50.0, C=1.0)


def test_identity_suite_reports_redraws():
    suite = identity_suite(dims=(3, 4), trials=60, rng=np.random.default_rng(0))
    for row in suite.values():
        assert row["redraws"] >= 0
        assert row["draws"] >= 60


def _trace3_pieces(F, v, ginv):
    """(F_{AB} F^{AB} v_C v^C, F^{AC} F_{AB} v^B v_C), as trace3 contracts them."""
    Fup = ginv @ F @ ginv.swapaxes(-1, -2)
    vup = np.einsum("...ab,...b->...a", ginv, v)
    s1 = np.einsum("...ab,...ab->...", F, Fup)
    s2 = np.einsum("...a,...a->...", v, vup)
    return s1 * s2, np.einsum("...ac,...ab,...b,...c->...", Fup, F, vup, v)


def _trace4_pieces(F, ginv):
    """(F_{AB} F^{AB}, tr((g^{-1} F)^4)), as trace4 contracts them."""
    s1 = np.einsum("...ab,...ab->...", F, ginv @ F @ ginv.swapaxes(-1, -2))
    M = ginv @ F
    M2 = M @ M
    return s1, np.einsum("...ab,...ba->...", M2, M2)


def _magnitude_scale(F, v, ginv, rank3):
    """The trace form's terms summed in magnitude, each elementary product
    written out on |F|, |v| and |g^{-1}|."""
    aF, av, ag = np.abs(F), np.abs(v), np.abs(ginv)
    s1 = np.einsum("ab,ap,bq,pq->", aF, ag, ag, aF)
    if rank3:
        s2 = np.einsum("a,ab,b->", av, ag, av)
        t2 = np.einsum("ap,pq,cq,ab,br,r,c->", ag, aF, ag, aF, ag, av, av)
        return 2.0 * s1 * s2 + 4.0 * t2
    M = ag @ aF
    return s1 * s1 + 2.0 * np.einsum("ab,bc,cd,da->", M, M, M, M)


def _per_draw_suite(dims, trials, rng, signature):
    """The identity suite as a loop over single draws: the suite's four bulk
    calls at its stack sizes, then each draw's metric, routes and redraw
    scale on its own: {ratio: (draws, redraws, mean)}."""
    plans = {
        "delta3_vs_trace3": (dims, True, delta3, trace3),
        "delta4_vs_trace4": ([d for d in dims if d >= 4], False, delta4, trace4),
        "eps3_vs_delta3": ([3], True, lambda F, v, ginv: eps(F, v, ginv) ** 2, delta3),
        "eps4_vs_trace4": ([4], False, lambda F, ginv: eps(F, F, ginv) ** 2, trace4),
    }
    out = {}
    for name, (ds, rank3, num_route, den_route) in plans.items():
        per = -(-trials // len(ds))
        vals, redraws = [], 0
        for d in ds:
            need = per
            while need:
                size = min(need, tensor_kernels._STACK_ENTRIES // d**4)
                A, spectrum = rng.standard_normal((size, d, d)), rng.uniform(0.5, 2.5, (size, d))
                B = rng.standard_normal((size, d, d)) / 2.0
                V = rng.standard_normal((size, d))
                for i in range(size):
                    F, v = B[i] - B[i].T, V[i]
                    ginv = np.linalg.inv(metric_from(A[i], spectrum[i], signature))
                    args = (F, v, ginv) if rank3 else (F, ginv)
                    den = den_route(*args)
                    scale = _magnitude_scale(F, v, ginv, rank3)
                    if scale == 0.0 or abs(den) <= 1e-3 * scale:
                        redraws += 1
                        continue
                    vals.append(num_route(*args) / den)
                    need -= 1
        out[name] = (len(vals), redraws, float(np.mean(vals)))
    return out


@pytest.mark.parametrize("signature", ["euclidean", "lorentzian"])
@pytest.mark.parametrize("dims", [(3, 4), (3, 4, 6), (3, 4, 5, 8)])
def test_stacked_identity_suite_matches_the_per_draw_loop(dims, signature):
    """The stacks take the per-draw loop's draws and filter them by the same
    magnitude scale: equal counts, and means equal up to rounding."""
    for seed in (0, 3, 11):
        suite = identity_suite(dims, trials=40, rng=np.random.default_rng(seed), signature=signature)
        reference = _per_draw_suite(dims, 40, np.random.default_rng(seed), signature)
        for name, (draws, redraws, mean) in reference.items():
            assert (suite[name]["draws"], suite[name]["redraws"]) == (draws, redraws)
            assert abs(suite[name]["mean"] - mean) <= 1e-12


@pytest.mark.parametrize("signature", ["euclidean", "lorentzian"])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_trace_forms_are_the_grouped_formulas_bit_for_bit(d, signature):
    rng = np.random.default_rng(d)
    g = np.array([random_metric(d, rng, signature) for _ in range(50)])
    F = np.array([random_antisymmetric(d, rng) for _ in range(50)])
    v = rng.standard_normal((50, d))
    ginv = np.linalg.inv(g)
    s12, t2 = _trace3_pieces(F, v, ginv)
    s1, t4 = _trace4_pieces(F, ginv)
    np.testing.assert_array_equal(trace3(F, v, ginv), 2.0 * (s12 - 2.0 * t2))
    np.testing.assert_array_equal(trace4(F, ginv), s1 * s1 - 2.0 * t4)


def test_identity_suite_stacks_stay_small():
    """A stack holds a bounded number of rank-4 entries, so memory does not
    grow with the trials even at d = 16."""
    tracemalloc.start()
    try:
        identity_suite(dims=(3, 4, 16), trials=500, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


class _ZeroNormals:
    """A generator whose normals are all zero; its spectra are real draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return self._rng.uniform(low, high, size)


def test_identity_suite_gives_up_on_a_degenerate_draw():
    """Zero normals give a zero F, whose trace form has zero magnitude, so
    every draw is redrawn until the filter gives up."""
    with pytest.raises(RuntimeError, match="rejected too many"):
        identity_suite(dims=(3, 4), trials=2, rng=_ZeroNormals(0))


# max_examples bounds the time: 25 examples take about 1 s
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       signature=st.sampled_from(["euclidean", "lorentzian"]),
       extra=st.sets(st.integers(min_value=5, max_value=8), max_size=2),
       trials=st.integers(min_value=1, max_value=24))
def test_identity_suite_spreads_and_means_property(seed, signature, extra, trials):
    """Every ratio sits at its route constant with a spread below 1e-10, for
    any seed, signature and admissible dims."""
    suite = identity_suite((3, 4, *extra), trials=trials, rng=np.random.default_rng(seed),
                           signature=signature)
    for name, target in ROUTE_CONSTANTS[signature].items():
        assert suite[name]["spread"] < 1e-10
        assert abs(suite[name]["mean"] - target) < 1e-10


def test_identity_suite_rejects_missing_base_dims():
    with pytest.raises(ValueError):
        identity_suite(dims=(4, 5), trials=10, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        identity_suite(dims=(2, 3, 4), trials=10, rng=np.random.default_rng(0))


def _stack_draws(seed, signature):
    """One draw of the stacked-kernel check, each a (2, 3) stack with a metric per node: (g, F, v)
    in n = 3, (g, F) in n = 4, and a weak lorentzian (g, F) for Born-Infeld."""
    rng = np.random.default_rng(seed)

    def draw(n, signature, scale=1.0):
        g = np.array([[random_metric(n, rng, signature) for _ in range(3)] for _ in range(2)])
        F = np.array([[scale * random_antisymmetric(n, rng) for _ in range(3)] for _ in range(2)])
        return g, F, rng.standard_normal((2, 3, n))

    g3, F3, v3 = draw(3, signature)
    g4, F4, _ = draw(4, signature)
    gl, Fl, _ = draw(4, "lorentzian", scale=0.1)
    return g3, F3, v3, g4, F4, gl, Fl


def _literal_sum_misses(g3, F3, v3, g4, F4, stacked):
    """Per node, |stacked - node| over its rounding bound for delta3 and delta4, the literal
    signed permutation sums, given their stacked values. The two sides sum the same k! terms of
    k^k products each in different orders, so with n = k! k^k they differ by at most 2 gamma_n
    times the summed magnitude of the terms, sum_p sum |low| |up_p| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3). A bound relative to the result fails
    where the sum cancels; this one does not depend on how far it cancels."""
    G3, G4 = np.linalg.inv(g3), np.linalg.inv(g4)
    rows = [
        (lambda i: delta3(F3[i], v3[i], G3[i]), np.einsum("...ab,...c->...abc", F3, v3),
         np.einsum("...ab,...c->...abc", tensor_kernels._raise(F3, G3),
                   tensor_kernels._raise_vector(v3, G3))),
        (lambda i: delta4(F4[i], G4[i]), np.einsum("...ab,...cd->...abcd", F4, F4),
         np.einsum("...ab,...cd->...abcd", *2 * [tensor_kernels._raise(F4, G4)])),
    ]
    u = np.finfo(float).eps / 2
    misses = []
    for (node, low, up), value in zip(rows, stacked):
        k, idx = low.ndim - 2, "abcd"[:low.ndim - 2]
        magnitude = sum(np.einsum(f"...{idx},...{''.join(idx[i] for i in p)}->...",
                                  np.abs(low), np.abs(up)) for p in permutations(range(k)))
        n = math.factorial(k) * k**k
        per_node = np.array([node(i) for i in np.ndindex(2, 3)]).reshape(2, 3)
        misses.append(np.abs(value - per_node) / (2 * n * u / (1 - n * u) * magnitude))
    return misses


def _stacked_literal_sums(g3, F3, v3, g4, F4):
    return delta3(F3, v3, np.linalg.inv(g3)), delta4(F4, np.linalg.inv(g4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       signature=st.sampled_from(["euclidean", "lorentzian"]))
def test_stacked_kernels_match_the_node_functions(seed, signature):
    """Every kernel on a (2, 3) stack of draws, each with its own metric, equals the same
    kernel on each node's slice: the literal sums within their rounding bound, the rest to
    1e-12 relative."""
    g3, F3, v3, g4, F4, gl, Fl = _stack_draws(seed, signature)
    draws = g3, F3, v3, g4, F4
    for misses in _literal_sum_misses(*draws, _stacked_literal_sums(*draws)):
        assert misses.max() <= 1.0
    inv = np.linalg.inv
    rows = [
        (trace3(F3, v3, inv(g3)), lambda i: trace3(F3[i], v3[i], inv(g3[i]))),
        (eps(F3, v3, inv(g3)), lambda i: eps(F3[i], v3[i], inv(g3[i]))),
        (trace4(F4, inv(g4)), lambda i: trace4(F4[i], inv(g4[i]))),
        (eps(F4, F4, inv(g4)), lambda i: eps(F4[i], F4[i], inv(g4[i]))),
        (born_infeld_density(Fl, gl, 0.7, C=1.3), lambda i: born_infeld_density(Fl[i], gl[i], 0.7, C=1.3)),
    ]
    for stacked, node in rows:
        assert stacked.shape == (2, 3)
        for i in np.ndindex(2, 3):
            assert stacked[i] == pytest.approx(node(i), rel=1e-12)


def test_stacked_literal_sums_hold_their_bound_on_a_cancelling_draw():
    """Seed 3332, euclidean: delta4 on the stack and on one node's slice differ by 1.06e-12 of
    the result, which cancels; against the summed magnitude of its terms the gap is small."""
    draws = _stack_draws(3332, "euclidean")[:5]
    for misses in _literal_sum_misses(*draws, _stacked_literal_sums(*draws)):
        assert misses.max() <= 1.0


def test_literal_sum_bound_catches_one_term_off_by_1e_9(monkeypatch):
    """The identity permutation's term of the stacked sums scaled by 1 + 1e-9 misses the
    bound at every node of the seed-3332 draw."""
    draws = _stack_draws(3332, "euclidean")[:5]
    honest = {k: epsilon_symbol(k) for k in (3, 4)}

    def planted(k):
        sym = honest[k].copy()
        sym[tuple(range(k))] *= 1.0 + 1e-9
        return sym

    monkeypatch.setattr(tensor_kernels, "epsilon_symbol", planted)
    stacked = _stacked_literal_sums(*draws)
    monkeypatch.undo()
    for misses in _literal_sum_misses(*draws, stacked):
        assert misses.min() > 1.0
