from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from uinf.tensor_kernels import (
    born_infeld_density,
    delta3,
    delta4,
    eps,
    epsilon_symbol,
    identity_suite,
    minkowski_metric,
    random_antisymmetric,
    random_metric,
    trace3,
    trace4,
)

QUARTIC_RATIO = 8.0


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
    ge = random_metric(4, rng)
    ev = np.linalg.eigvalsh(ge)
    assert np.all(ev > 0)
    gl = random_metric(4, rng, signature="lorentzian")
    ev = np.sort(np.linalg.eigvalsh(gl))
    assert ev[0] < 0 and np.all(ev[1:] > 0)


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
    dens = born_infeld_density(F, g, alpha)
    ginv = np.linalg.inv(g)
    quad = 0.25 * np.einsum("ab,cd,ac,bd->", F, F, ginv, ginv)
    assert dens == pytest.approx(quad, rel=1e-5)


def test_born_infeld_density_rejects_bad_inputs():
    g = minkowski_metric(4)
    F = np.zeros((4, 4))
    with pytest.raises(ValueError):
        born_infeld_density(F, g, 0.0)
    strong = random_antisymmetric(4, np.random.default_rng(0)) * 100.0
    with pytest.raises(ValueError):
        born_infeld_density(strong, g, 50.0)


def test_identity_suite_reports_redraws():
    suite = identity_suite(dims=(3, 4), trials=60, rng=np.random.default_rng(0))
    for row in suite.values():
        assert row["redraws"] >= 0
        assert row["draws"] >= 60


def test_identity_suite_rejects_missing_base_dims():
    with pytest.raises(ValueError):
        identity_suite(dims=(4, 5), trials=10)
    with pytest.raises(ValueError):
        identity_suite(dims=(2, 3, 4), trials=10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       signature=st.sampled_from(["euclidean", "lorentzian"]))
def test_stacked_kernels_match_the_node_functions(seed, signature):
    """Every kernel on a (2, 3) stack of draws, each with its own metric,
    equals the same kernel on each node's slice."""
    rng = np.random.default_rng(seed)

    def draw(n, signature, scale=1.0):
        g = np.array([[random_metric(n, rng, signature) for _ in range(3)] for _ in range(2)])
        F = np.array([[random_antisymmetric(n, rng, scale) for _ in range(3)] for _ in range(2)])
        return g, F, rng.standard_normal((2, 3, n))

    g3, F3, v3 = draw(3, signature)
    g4, F4, _ = draw(4, signature)
    gl, Fl, _ = draw(4, "lorentzian", scale=0.1)
    inv = np.linalg.inv
    rows = [
        (delta3(F3, v3, inv(g3)), lambda i: delta3(F3[i], v3[i], inv(g3[i]))),
        (trace3(F3, v3, inv(g3)), lambda i: trace3(F3[i], v3[i], inv(g3[i]))),
        (eps(F3, v3, inv(g3)), lambda i: eps(F3[i], v3[i], inv(g3[i]))),
        (delta4(F4, inv(g4)), lambda i: delta4(F4[i], inv(g4[i]))),
        (trace4(F4, inv(g4)), lambda i: trace4(F4[i], inv(g4[i]))),
        (eps(F4, F4, inv(g4)), lambda i: eps(F4[i], F4[i], inv(g4[i]))),
        (born_infeld_density(Fl, gl, 0.7, C=1.3), lambda i: born_infeld_density(Fl[i], gl[i], 0.7, C=1.3)),
    ]
    for stacked, node in rows:
        assert stacked.shape == (2, 3)
        for i in np.ndindex(2, 3):
            assert stacked[i] == pytest.approx(node(i), rel=1e-12)
