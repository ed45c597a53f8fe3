"""End to end acceptance checks, one test per shipped claim.

Each test prints a single PASS line on success; a failed assert reads as the
matching FAIL in the pytest report. Numbers here are pinned, not recomputed
from the modules under test, so a regression in either route shows up as a
disagreement rather than a silently moving target.
"""

import time

import numpy as np
import pytest

from uinf.gauge_fields import (
    AdjointScalar,
    GaugeConfig,
    gauge_transform_config,
    gauge_transform_scalar,
    random_adjoint_scalar,
    random_gauge_config,
    scalar_kinetic_integral,
    yang_mills_integral,
)
from uinf.monopole import (
    bogomolnyi_residuals,
    energy_breakdown,
    perturbation_report,
    solve_perturbation,
)
from uinf.reduction import (
    Background,
    BlockMetric,
    b_scan,
    born_infeld_report,
    reduce_scalar,
    reduce_yang_mills,
)
from uinf.sphere_algebra import (
    HarmonicField,
    bracket,
    random_real_field,
    structure_constants,
)
from uinf.cli import main as cli_main
from conftest import lorentz, zero_field
from monopole_checks import perturb_profile, variational_check


def _report(label, detail):
    print("%s: PASS (%s)" % (label, detail))


def test_criterion_01_contraction_identities_bulk():
    t0 = time.perf_counter()
    from uinf.tensor_kernels import identity_suite

    suite = identity_suite(
        dims=(3, 4, 5, 6, 7, 8), trials=1000, rng=np.random.default_rng(0)
    )
    elapsed = time.perf_counter() - t0
    worst = max(row["spread"] for row in suite.values())
    for row in suite.values():
        assert row["draws"] >= 1000
        assert row["spread"] < 1e-10
    assert elapsed < 5.0
    _report("criterion 01", "worst spread %.3e in %.2fs" % (worst, elapsed))


def test_criterion_02_route_constants():
    from uinf.tensor_kernels import identity_suite

    expected = {
        "euclidean": (1.0, 8.0, 1.0, 8.0),
        "lorentzian": (1.0, 8.0, -1.0, -8.0),
    }
    names = ("delta3_vs_trace3", "delta4_vs_trace4", "eps3_vs_delta3", "eps4_vs_trace4")
    worst = 0.0
    for signature, targets in expected.items():
        suite = identity_suite(
            dims=(3, 4, 6), trials=500, rng=np.random.default_rng(0), signature=signature
        )
        for name, target in zip(names, targets):
            row = suite[name]
            assert row["draws"] >= 500
            assert abs(row["mean"] - target) < 1e-10
            worst = max(worst, abs(row["mean"] - target))
    _report("criterion 02", "worst mean error %.3e" % worst)


def test_criterion_03_structure_constant_algebra():
    t0 = time.perf_counter()
    C = structure_constants(6)
    anti = np.max(np.abs(C + np.transpose(C, (1, 0, 2))))
    assert anti == 0.0
    rng = np.random.default_rng(1)
    worst = 0.0
    checked = 0
    while checked < 40:
        ls = rng.integers(1, 3, size=3)
        if ls.sum() > 6:
            continue
        fields = [
            HarmonicField.basis(int(l), int(rng.integers(-l, l + 1))) for l in ls
        ]
        a, b, c = fields
        j1 = bracket(a, bracket(b, c))
        j2 = bracket(b, bracket(c, a))
        j3 = bracket(c, bracket(a, b))
        L = max(j1.l_max, j2.l_max, j3.l_max)
        total = j1.pad_to(L).coeffs + j2.pad_to(L).coeffs + j3.pad_to(L).coeffs
        worst = max(worst, float(np.max(np.abs(total))))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(
        "criterion 03",
        "antisymmetry exact, jacobi %.3e over %d triples in %.2fs" % (worst, checked, elapsed),
    )


def test_criterion_04_gauge_invariance():
    h = 0.5

    def exact_first_derivative(vals):
        m2, m1, p1, p2 = vals
        return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)

    rng = np.random.default_rng(0)
    worst = 0.0
    for dim in (2, 3, 4):
        metric = lorentz(dim)
        for _ in range(50):
            cfg = random_gauge_config(dim, 2, rng, amplitude=0.5)
            scal = random_adjoint_scalar(dim, 2, rng, amplitude=0.5)
            omega = random_real_field(2, rng, amplitude=0.7)
            domega = [random_real_field(2, rng, amplitude=0.7) for _ in range(dim)]
            i_ym = yang_mills_integral(cfg, metric)
            i_kin = scalar_kinetic_integral(cfg, scal, metric)
            ym_vals, kin_vals = [], []
            for t in (-2 * h, -h, h, 2 * h):
                cfg_t = gauge_transform_config(cfg, omega, domega, t)
                scal_t = gauge_transform_scalar(scal, omega, domega, t, cfg.coupling)
                ym_vals.append(yang_mills_integral(cfg_t, metric))
                kin_vals.append(scalar_kinetic_integral(cfg_t, scal_t, metric))
            d_ym = abs(exact_first_derivative(ym_vals)) / max(abs(i_ym), 1.0)
            d_kin = abs(exact_first_derivative(kin_vals)) / max(abs(i_kin), 1.0)
            worst = max(worst, d_ym, d_kin)
            assert d_ym < 1e-10
            assert d_kin < 1e-10
    _report("criterion 04", "worst first variation %.3e over 150 draws" % worst)


def test_criterion_05_vanishing_groups(seed0_fields, background):
    cfg, scal = seed0_fields
    metric = BlockMetric(lorentz(4), 1.0)
    rs = reduce_scalar(cfg, scal, metric, background)
    ry = reduce_yang_mills(cfg, metric, background)
    assert rs["vanishing_group_rel"] < 1e-12
    assert ry["vanishing_group_rel"] < 1e-12
    _report(
        "criterion 05",
        "scalar %.3e gauge %.3e" % (rs["vanishing_group_rel"], ry["vanishing_group_rel"]),
    )


def test_criterion_06_covariant_route_constants(seed0_fields, background):
    cfg, scal = seed0_fields
    metric = BlockMetric(lorentz(4), 1.0)
    q = background.q
    rs = reduce_scalar(cfg, scal, metric, background)
    ry = reduce_yang_mills(cfg, metric, background)
    err_s = abs(rs["covariant_constant"] - 2.0 / q**2) / (2.0 / q**2)
    err_y = abs(ry["covariant_constant"] - 4.0 / q**2) / (4.0 / q**2)
    assert err_s < 1e-9
    assert err_y < 1e-9
    _report("criterion 06", "scalar %.3e gauge %.3e" % (err_s, err_y))


def test_criterion_07_radius_scan_exponent(seed0_fields, background):
    cfg, scal = seed0_fields
    scan = b_scan(cfg, scal, lorentz(4), background, [0.4, 0.2, 0.1, 0.05])
    assert scan["fit_exponent"] >= 1.95
    _report("criterion 07", "fit exponent %.6f" % scan["fit_exponent"])


def test_criterion_08_pure_scalar_masslessness(background):
    L = 3
    dim = 4
    zero = zero_field(L)
    cfg = GaugeConfig(dim, background.q, (zero,) * dim, ((zero,) * dim,) * dim)
    phi = random_real_field(L, np.random.default_rng(0), amplitude=0.4)
    scal = AdjointScalar(dim, phi, (zero,) * dim)
    rep = reduce_scalar(cfg, scal, BlockMetric(lorentz(4), 1.0), background)
    groups = rep["group_integrals"]
    assert groups[0] == 0.0
    assert groups[1] == 0.0
    assert groups[2] == 0.0
    assert abs(groups[3]) < 1e-13
    _report("criterion 08", "groups (0, 0, 0, %.3e)" % groups[3])


def test_criterion_09_first_order_solution(reference_profile):
    t0 = time.perf_counter()
    rk, rh = bogomolnyi_residuals(reference_profile)
    evb = energy_breakdown(reference_profile)
    elapsed = time.perf_counter() - t0
    worst = max(np.max(np.abs(rk)), np.max(np.abs(rh)))
    assert worst < 1e-8
    assert abs(evb.completed - 1.0) < 1e-4
    assert elapsed < 5.0
    _report(
        "criterion 09",
        "residual %.3e, energy %.10f, %.3fs" % (worst, evb.completed, elapsed),
    )


def test_criterion_10_energy_lower_bound(reference_profile):
    base = energy_breakdown(reference_profile).completed
    lowest = np.inf
    for seed in range(100):
        bumped = perturb_profile(reference_profile, np.random.default_rng(seed))
        lowest = min(lowest, energy_breakdown(bumped).completed)
    assert lowest >= 1.0 - 1e-3
    assert lowest >= base - 1e-12
    _report("criterion 10", "lowest perturbed energy %.10f over 100 draws" % lowest)


@pytest.fixture(scope="module")
def correction_report(reference_profile):
    return perturbation_report(reference_profile, solve_perturbation(reference_profile))


def test_criterion_11a_origin_exponents(correction_report):
    ek = correction_report["origin_exponent_K"]
    eh = correction_report["origin_exponent_H"]
    assert abs(ek - 2.0) < 0.1
    assert abs(eh - 2.0) < 0.1
    _report("criterion 11a", "origin exponents %.4f %.4f" % (ek, eh))


def test_criterion_11b_correction_tail_decay(correction_report):
    slope = correction_report["tail_slope_K"]
    assert abs(slope - (-1.0)) < 0.05
    _report("criterion 11b", "tail slope %.4f" % slope)


def test_criterion_11c_linear_response(correction_report):
    r2 = correction_report["linearity_r_squared"]
    assert r2 > 0.9999
    _report("criterion 11c", "linearity r^2 %.8f" % r2)


def test_criterion_12_variational_identity(reference_profile):
    out = variational_check(reference_profile, rng=np.random.default_rng(0), pairs=100)
    assert out["pairs"] == 100
    assert out["max_rel_error"] < 1e-6
    _report("criterion 12", "max relative error %.3e over 100 pairs" % out["max_rel_error"])


def test_criterion_13_flat_limit_of_the_square_root_action(background):
    rng = np.random.default_rng(2)
    cfg = random_gauge_config(4, 2, rng, amplitude=0.25)
    drifts = [
        rep["drift"]
        for rep in born_infeld_report(cfg, lorentz(4), background, 0.5, 1.0, [0.4, 0.2, 0.1, 0.05])
    ]
    assert all(b < a for a, b in zip(drifts, drifts[1:]))
    suppression = [
        born_infeld_report(cfg, lorentz(4), background, alpha, 1.0, [0.1])[0]["suppression_ratio"]
        for alpha in (0.8, 0.4, 0.2, 0.1, 0.05)
    ]
    assert all(b > a for a, b in zip(suppression, suppression[1:]))
    assert suppression[-1] > 0.98
    _report(
        "criterion 13",
        "drift %.4f -> %.4f, suppression -> %.4f" % (drifts[0], drifts[-1], suppression[-1]),
    )


def test_criterion_14_deterministic_cli(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        rc = cli_main(["reduce", "scalar", "--lmax", "2", "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
    assert first.read_bytes() == second.read_bytes()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = cli_main(["monopole", "solve", "--xi-max", "10", "--n", "800", "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    _report("criterion 14", "json and csv reruns byte identical")
