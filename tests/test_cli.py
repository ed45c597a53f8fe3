import json

import numpy as np
import pytest

from uinf.cli import main
from uinf.sphere_algebra import HarmonicField, random_real_field


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_identities_exits_clean(capsys):
    rc, out, _ = run(capsys, ["identities", "--trials", "20"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "identities"
    assert set(doc["ratios"]) == {
        "delta3_vs_trace3",
        "delta4_vs_trace4",
        "eps3_vs_delta3",
        "eps4_vs_trace4",
    }
    for row in doc["ratios"].values():
        assert row["spread"] < 1e-10


def test_identities_impossible_tolerance_fails(capsys):
    rc, _, _ = run(capsys, ["identities", "--trials", "20", "--tol", "1e-20"])
    assert rc == 1


def test_unknown_flag_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["identities", "--bogus"])
    assert rc == 2


def test_missing_command_is_usage_error(capsys):
    rc, _, _ = run(capsys, [])
    assert rc == 2


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0


def test_reduce_scalar_report(capsys):
    rc, out, _ = run(capsys, ["reduce", "scalar", "--lmax", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["l_max"] == 2
    assert doc["report"]["total"] == pytest.approx(-0.20166758823616002, rel=1e-12)
    assert doc["report"]["classification_residual_rel"] < 1e-12


def test_reduce_two_dim(capsys):
    rc, out, _ = run(capsys, ["reduce", "two-dim", "--lmax", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["measured_constant"] == pytest.approx(64.0, rel=1e-12)


def test_reduce_scan_b_is_csv(capsys):
    rc, out, _ = run(capsys, ["reduce", "scan-b", "--lmax", "2"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "b"
    assert "fit_exponent" in header
    assert len(lines) == 5


def test_reduce_born_infeld_drift_check(capsys):
    rc, out, _ = run(capsys, ["reduce", "born-infeld"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    drift_col = lines[0].split(",").index("drift")
    drifts = [float(ln.split(",")[drift_col]) for ln in lines[1:]]
    assert all(b < a for a, b in zip(drifts, drifts[1:]))


def test_monopole_solve_coarse_grid_flags_failure(capsys):
    rc, _, _ = run(capsys, ["monopole", "solve", "--xi-max", "25", "--n", "400"])
    assert rc == 1


def test_monopole_solve_fine_grid(capsys):
    rc, out, _ = run(capsys, ["monopole", "solve", "--xi-max", "10", "--n", "800"])
    assert rc == 0
    meta = {
        ln.split(" = ")[0][2:]: ln.split(" = ")[1]
        for ln in out.splitlines()
        if ln.startswith("# ")
    }
    assert float(meta["max_residual_first"]) < 1e-8
    assert float(meta["max_residual_second"]) < 1e-8
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert body[0] == "xi,K,H"
    assert len(body) == 801


def test_monopole_energy_json(capsys):
    rc, out, _ = run(capsys, ["monopole", "energy", "--xi-max", "25", "--n", "4000"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["breakdown"]["completed"] == pytest.approx(1.0, abs=1e-4)
    assert doc["physical"]["quantization_ok"] is True
    assert doc["physical"]["prefactor"] == pytest.approx(np.pi**2, rel=1e-12)


def test_monopole_energy_coefficient_override(capsys):
    rc, out, _ = run(
        capsys,
        [
            "monopole", "energy", "--xi-max", "10", "--n", "800",
            "--coeff", "h2_kprime2=0", "--coeff", "xi2_1mk4=0",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    default = run(capsys, ["monopole", "energy", "--xi-max", "10", "--n", "800"])
    base = json.loads(default[1])
    assert doc["physical"]["correction_integral"] != base["physical"]["correction_integral"]


def test_monopole_energy_rejects_unknown_coefficient(capsys):
    rc, _, err = run(
        capsys,
        ["monopole", "energy", "--xi-max", "10", "--n", "800", "--coeff", "zzz=1"],
    )
    assert rc == 2
    assert "zzz" in err


def test_monopole_scan_evb(capsys):
    rc, out, _ = run(
        capsys,
        ["monopole", "scan-evb", "--xi-max", "10", "--n", "800", "--evb-list", "0.1,0.2"],
    )
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    eps_col = header.index("epsilon")
    eps = [float(ln.split(",")[eps_col]) for ln in lines[1:]]
    assert eps[0] == pytest.approx(0.1**4 / 30.0, rel=1e-12)
    assert eps[1] == pytest.approx(0.2**4 / 30.0, rel=1e-12)


def test_algebra_su2(capsys):
    rc, out, _ = run(capsys, ["algebra", "su2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["closure_residual"] < 1e-10
    assert doc["substituted"] is True
    assert len(doc["generators"]) == 3


def test_algebra_structure_constants(capsys):
    rc, out, _ = run(capsys, ["algebra", "structure-constants", "--lmax", "1"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = lines[1:]
    assert len(rows) == 6
    c = np.sqrt(3.0 / (4.0 * np.pi))
    for row in rows:
        parts = row.split(",")
        assert abs(float(parts[-2])) < 1e-14
        assert abs(abs(float(parts[-1])) - c) < 1e-12


def test_algebra_bracket_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    f = random_real_field(2, rng)
    g = random_real_field(2, rng)
    fp = tmp_path / "f.json"
    gp = tmp_path / "g.json"
    fp.write_text(json.dumps(f.to_dict()))
    gp.write_text(json.dumps(g.to_dict()))
    rc, out, _ = run(capsys, ["algebra", "bracket", "--f", str(fp), "--g", str(gp)])
    assert rc == 0
    doc = json.loads(out)
    back = HarmonicField.from_dict(doc["result"])
    from uinf.sphere_algebra import bracket

    expect = bracket(f, g)
    np.testing.assert_allclose(back.coeffs, expect.coeffs, atol=1e-15)


def test_missing_input_file_is_io_error(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        ["algebra", "bracket", "--f", str(tmp_path / "no.json"), "--g", str(tmp_path / "no.json")],
    )
    assert rc == 2


def test_config_file_fills_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# trial config\nlmax = 2\nseed = 5\n")
    rc, out, _ = run(capsys, ["reduce", "scalar", "--config", str(cfg)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["l_max"] == 2
    assert doc["meta"]["seed"] == 5
    rc, out, _ = run(
        capsys, ["reduce", "scalar", "--config", str(cfg), "--lmax", "3"]
    )
    doc = json.loads(out)
    assert doc["report"]["l_max"] == 3
    assert doc["meta"]["seed"] == 5


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    rc, _, err = run(capsys, ["reduce", "scalar", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" in err


def test_output_file_and_determinism(tmp_path, capsys):
    """The same seeded command writes byte identical output on rerun."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc = main(["reduce", "scalar", "--lmax", "2", "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0


def test_csv_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(
            ["monopole", "perturb", "--xi-max", "10", "--n", "800", "--out", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("sub", ["scalar", "ym", "two-dim", "scan-b", "born-infeld"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reduce_rejects_non_finite_e(tmp_path, capsys, sub, value):
    rc, out, err = run(capsys, ["reduce", sub, "--e", value])
    assert rc == 2 and out == ""
    assert "--e" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("e = %s\n" % value)
    rc, out, err = run(capsys, ["reduce", sub, "--config", str(cfg)])
    assert rc == 2 and out == ""
    assert "--e" in err
