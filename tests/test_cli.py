import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from uinf import cli, monopole, reduction, sphere_algebra, tensor_kernels
from uinf.cli import _parse, build_parser, main
from uinf.sphere_algebra import HarmonicField, random_real_field


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _reject_constant(text):
    raise ValueError("non-finite number in JSON: %s" % text)


def parse_report(out):
    """(document, checks) of a report, parsed strictly: JSON without NaN or
    Infinity, or CSV with '# key = value' meta lines, a column line and rows
    of finite numbers of that width. A check's null number, an empty field
    in CSV, reads as NaN."""
    if out.startswith("{"):
        doc = json.loads(out, parse_constant=_reject_constant)
        return doc, doc["checks"]
    lines = out.splitlines()
    meta = [ln[2:] for ln in lines if ln.startswith("# ")]
    assert lines[: len(meta)] == ["# " + m for m in meta]
    checks = []
    for line in meta:
        key, value = line.split(" = ")
        if key.startswith("check."):
            fields = dict(item.split("=") for item in value.split(" "))
            assert set(fields) == {"value", "bound", "ok"} and fields["ok"] in ("True", "False")
            value, bound = (float(fields[k] or "nan") for k in ("value", "bound"))
            checks.append({"name": key[len("check."):], "value": value, "bound": bound,
                           "ok": fields["ok"] == "True"})
    header, *rows = lines[len(meta):]
    width = len(header.split(","))
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        assert len(cells) == width and all(math.isfinite(c) for c in cells)
    return (header, rows, meta), checks


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


def _scale(monkeypatch, module, kernel, factor=1.0 + 1e-6):
    """Plant a fault: the module's kernel returns its value times factor."""
    clean = getattr(module, kernel)
    monkeypatch.setattr(module, kernel, lambda *args, **kw: clean(*args, **kw) * factor)


_FAULT = 1.0 + 1e-6
# the tail is 1/25 of the energy at the default cutoff, so its fault is larger
_TAIL_FAULT = 1.0 + 1e-3


@pytest.mark.parametrize("module, kernel, factor, argv, failing", [
    (tensor_kernels, "delta3", _FAULT, ["identities"], ["mean.delta3_vs_trace3", "mean.eps3_vs_delta3"]),
    (tensor_kernels, "delta4", _FAULT, ["identities"], ["mean.delta4_vs_trace4"]),
    (tensor_kernels, "eps", _FAULT, ["identities"], ["mean.eps3_vs_delta3", "mean.eps4_vs_trace4"]),
    (sphere_algebra, "_x_derivative", _FAULT, ["algebra", "su2"], ["bracket_constant_rel"]),
    (sphere_algebra, "_x_derivative", _FAULT, ["algebra", "structure-constants"],
     ["generator_row"]),
    (sphere_algebra, "structure_constants", _FAULT, ["algebra", "structure-constants"],
     ["generator_row"]),
    (monopole, "_simpson", _FAULT, ["monopole", "solve"], ["closed_form_remainder"]),
    (monopole, "_simpson", _FAULT, ["monopole", "energy"], ["closed_form_remainder"]),
    (monopole, "energy_density", _FAULT, ["monopole", "solve"], ["closed_form_remainder"]),
    (monopole, "energy_density", _FAULT, ["monopole", "energy"], ["closed_form_remainder"]),
    (monopole, "tail_estimate", _TAIL_FAULT, ["monopole", "solve"], ["closed_form_remainder"]),
    (monopole, "tail_estimate", _TAIL_FAULT, ["monopole", "energy"], ["closed_form_remainder"]),
], ids=["delta3", "delta4", "eps", "_x_derivative", "_x_derivative-structure-constants",
        "structure_constants",
        "_simpson-solve", "_simpson-energy", "energy_density-solve", "energy_density-energy",
        "tail_estimate-solve", "tail_estimate-energy"])
def test_fault_table(monkeypatch, capsys, module, kernel, factor, argv, failing):
    """Each row scales one kernel's output by factor, 1 + 1e-6 (the tail
    1 + 1e-3); a default run that calls it exits 1, and the checks named
    fail."""
    _scale(monkeypatch, module, kernel, factor)
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert [c["name"] for c in parse_report(out)[1] if not c["ok"]] == failing


def test_identities_fails_a_mean_off_its_route_constant(monkeypatch, capsys):
    """delta4 scaled by 1 + 1e-6 keeps every spread, and moves the quartic
    ratio's mean by 8e-6 off its constant 8: that check fails alone."""
    _scale(monkeypatch, tensor_kernels, "delta4")
    rc, out, _ = run(capsys, ["identities", "--trials", "20"])
    assert rc == 1
    _, checks = parse_report(out)
    failing = [c for c in checks if not c["ok"]]
    assert [c["name"] for c in failing] == ["mean.delta4_vs_trace4"]
    assert failing[0]["bound"] == 1e-10
    assert failing[0]["value"] == pytest.approx(8e-6, rel=1e-6)


@pytest.mark.parametrize("seed", [44, 580, 622, 701, 767])
def test_identities_lorentzian_seeds_pass_the_default_tolerance(capsys, seed):
    """At these seeds a redraw scale taken from the trace form's two terms,
    after F_AB F^AB has cancelled inside itself, keeps draws whose ratio is
    mostly rounding, and a quartic spread reads 1.1e-10 to 2.8e-10. The scale
    from the magnitudes of every elementary product redraws them."""
    rc, out, _ = run(capsys, ["identities", "--signature", "lorentzian", "--seed", str(seed),
                              "--trials", "200"])
    assert rc == 0
    assert all(row["spread"] < 1e-10 for row in json.loads(out)["ratios"].values())


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


@pytest.mark.parametrize("argv", [
    ["reduce", "ym", "--b", "0.2"],
    ["reduce", "ym", "--b", "0.05"],
    ["reduce", "two-dim", "--b", "0.05"],
    ["reduce", "scalar", "--b", "0.05"],
])
def test_reduce_checks_do_not_depend_on_the_radius_unit(capsys, argv):
    """The route residuals are divided by the magnitudes of the terms they
    sum, so a small sphere passes like the unit one."""
    rc, out, _ = run(capsys, argv)
    doc, checks = parse_report(out)
    assert rc == 0 and all(c["ok"] for c in checks)
    assert [c for c in checks if c["name"].endswith("forward_scan_residual_rel")]


@pytest.mark.parametrize("sub", ["scalar", "ym"])
def test_reduce_of_zero_jets_passes(capsys, sub):
    """At --amplitude 0 every term of the lower groups vanishes: their zero
    magnitudes read as zero residuals, and the run exits 0."""
    rc, out, err = run(capsys, ["reduce", sub, "--amplitude", "0"])
    doc, checks = parse_report(out)
    assert rc == 0 and err == ""
    assert doc["report"]["group_magnitudes"][0] == 0.0
    assert doc["report"]["retained_fraction"] == 0.0


def test_reduce_scan_b_checks_each_route_at_its_worst_radius(capsys):
    """scan-b lists the route checks of its scalar splits, each on its
    largest value over the radii, at the fixed bounds of the reduce
    defaults."""
    rc, out, _ = run(capsys, ["reduce", "scan-b"])
    _, checks = parse_report(out)
    bounds = {c["name"]: c["bound"] for c in checks}
    assert rc == 0 and bounds == {
        "classification_residual_rel": 1e-10, "covariant_identity_rel": 1e-10,
        "forward_scan_residual_rel": 1e-10, "vanishing_group_rel": 1e-12, "finite": 0.0}
    assert all(c["ok"] for c in checks)


@pytest.mark.parametrize("sub", ["scalar", "ym", "two-dim", "scan-b", "born-infeld"])
def test_each_reduce_subcommand_builds_its_node_data_once(capsys, monkeypatch, sub):
    """Every reduction builds its radius-free node data once, in the function
    that loops its radii, however many radii the subcommand runs."""
    real, calls = reduction._node_data, []
    monkeypatch.setattr(reduction, "_node_data", lambda *args: calls.append(args) or real(*args))
    assert run(capsys, ["reduce", sub])[0] == 0
    assert len(calls) == 1


def test_reduce_born_infeld_drift_check(capsys):
    rc, out, _ = run(capsys, ["reduce", "born-infeld"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    drift_col = lines[0].split(",").index("drift")
    drifts = [float(ln.split(",")[drift_col]) for ln in lines[1:]]
    assert all(b < a for a, b in zip(drifts, drifts[1:]))


@pytest.mark.parametrize("b_list", ["0.05,0.1,0.2,0.4", "0.1,0.4,0.05,0.2"])
def test_reduce_born_infeld_drift_check_ignores_the_radius_order(capsys, b_list):
    """The drift falls over the radii taken largest first, so reordering
    --b-list keeps the default's check and reorders only the rows."""
    def fall_and_radii(argv):
        rc, out, _ = run(capsys, ["reduce", "born-infeld"] + argv)
        assert rc == 0
        lines = out.splitlines()
        check_line = [ln for ln in lines if ln.startswith("# check.drift_min_fall = ")]
        radii = [float(ln.split(",")[0]) for ln in lines if ln[0].isdigit()]
        return check_line, radii

    default_check, _ = fall_and_radii([])
    check_line, radii = fall_and_radii(["--b-list", b_list])
    assert check_line == default_check
    assert radii == [float(b) for b in b_list.split(",")]


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
    assert eps[0] == pytest.approx(0.1**4 / 30.0, rel=1e-12, abs=0)
    assert eps[1] == pytest.approx(0.2**4 / 30.0, rel=1e-12, abs=0)


def test_algebra_su2(capsys):
    rc, out, _ = run(capsys, ["algebra", "su2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["closure_residual"] < 1e-10
    assert doc["basis"] == "real_combination" and doc["substituted"] is True
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


def _field_files(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for name in ("f", "g"):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(random_real_field(2, rng).to_dict()))
        paths.append(str(path))
    return paths


def test_algebra_bracket_fields_from_config(tmp_path, capsys):
    fp, gp = _field_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f = %s\ng = %s\n" % (fp, gp))
    flags = run(capsys, ["algebra", "bracket", "--f", fp, "--g", gp])
    assert flags[0] == 0
    assert run(capsys, ["algebra", "bracket", "--config", str(cfg)]) == flags


@pytest.mark.parametrize("flag", ["--config", "--f", "--g"])
def test_a_byte_order_mark_reads_as_its_absence(tmp_path, capsys, flag):
    """An input file saved with a UTF-8 byte-order mark gives the output of
    the same file without one: RFC 8259 lets a JSON reader ignore the mark,
    and the first config key keeps its name."""
    fp, gp = _field_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lmax = 2\n")
    argv = (["reduce", "ym", "--config", str(cfg)] if flag == "--config"
            else ["algebra", "bracket", "--f", fp, "--g", gp])
    plain = run(capsys, argv)
    i = argv.index(flag) + 1
    marked = tmp_path / "marked"
    with open(argv[i], "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    argv[i] = str(marked)
    assert plain[0] == 0 and run(capsys, argv) == plain


def _l8_field_files(tmp_path):
    """Two L = 8 field files, the band of the benchmark's cli-cold run."""
    rng = np.random.default_rng(1)
    fields, paths = [], []
    for name in ("f", "g"):
        fields.append(random_real_field(8, rng))
        paths.append(tmp_path / (name + ".json"))
        paths[-1].write_text(json.dumps(fields[-1].to_dict()))
    return fields, [str(p) for p in paths]


def test_algebra_bracket_checks_antisymmetry_and_prints_the_bracket_bit_for_bit(
        tmp_path, capsys):
    from uinf.sphere_algebra import bracket

    (f, g), (fp, gp) = _l8_field_files(tmp_path)
    rc, out, _ = run(capsys, ["algebra", "bracket", "--f", fp, "--g", gp])
    assert rc == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(bracket(f, g).to_dict())) == doc["result"]
    assert {"name": "antisymmetry", "value": 0.0, "bound": 1e-12, "ok": True} in doc["checks"]


def test_algebra_bracket_with_a_symmetric_part_exits_1(tmp_path, capsys, monkeypatch):
    """A bracket plus the pointwise product is no longer antisymmetric; the
    check catches it. A pure rescaling of the bracket would pass: only the
    bracket constant of `algebra su2` pins the scale."""
    from uinf import sphere_algebra

    _, (fp, gp) = _l8_field_files(tmp_path)
    brackets, product = sphere_algebra.brackets, sphere_algebra.product
    monkeypatch.setattr(sphere_algebra, "brackets", lambda pairs: [
        b + product(f, g) for b, (f, g) in zip(brackets(pairs), pairs)])
    rc, out, _ = run(capsys, ["algebra", "bracket", "--f", fp, "--g", gp])
    _, checks = parse_report(out)
    check = next(c for c in checks if c["name"] == "antisymmetry")
    assert rc == 1 and not check["ok"] and check["value"] > 0.1


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Two fresh processes, one with one OpenBLAS thread and one with two
    (the count is fixed when numpy loads), print the same bytes for every
    subcommand at its defaults, `algebra bracket` on two L = 8 field files,
    and for `algebra structure-constants` at --lmax 4 and 6. A 1-core host
    runs both alike, so it cannot tell the two apart."""
    _, (fp, gp) = _l8_field_files(tmp_path)
    argvs = [["identities"]] + [["reduce", sub] for sub in (
        "scalar", "ym", "two-dim", "scan-b", "born-infeld")] + [["monopole", sub] for sub in (
        "solve", "energy", "perturb", "scan-evb")] + [
        ["algebra", "structure-constants"], ["algebra", "su2"],
        ["algebra", "bracket", "--f", fp, "--g", gp]] + [
        ["algebra", "structure-constants", "--lmax", l] for l in "46"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import json, sys\nfrom uinf.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    procs = [subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    assert [(p.returncode, p.stderr) for p in procs] == [(0, b"")] * 2
    assert procs[0].stdout == procs[1].stdout


@pytest.mark.parametrize("lmax", ["1", "3", "6"])
def test_algebra_structure_constants_checks_antisymmetry_and_the_order_rule(capsys, lmax):
    """Antisymmetry is exact; outside the 3j selection rule the entries are
    rounding noise."""
    rc, out, _ = run(capsys, ["algebra", "structure-constants", "--lmax", lmax])
    _, checks = parse_report(out)
    assert rc == 0
    assert [(c["name"], c["bound"]) for c in checks[:2]] == [
        ("antisymmetry", 1e-12), ("selection_rule", 1e-12)]
    assert checks[0]["value"] == 0.0 and checks[1]["value"] <= 1e-14


@pytest.mark.parametrize("check_name", ["antisymmetry", "selection_rule"])
def test_algebra_structure_constants_checks_fail_on_a_planted_entry(capsys, monkeypatch, check_name):
    """At --lmax 8, a symmetric pair in rows (8, -8) and (8, 8) at an
    allowed slot fails antisymmetry, and an entry at a slot the rule
    forbids (l1 + l2 + l3 even) fails selection_rule."""
    from uinf import sphere_algebra

    real = sphere_algebra.structure_constants

    def planted(l_max):
        t = real(l_max)
        a, b, v = 80, 64, np.abs(t).max()  # (8, 8), (8, -8) at l^2 + l + m
        if check_name == "antisymmetry":
            t[a, b, 1] += v  # l3 = 1: 8 + 8 + 1 is odd and 0 < 1 < 16
            t[b, a, 1] += v
        else:
            t[a, b, 2] = v  # l3 = 2: 8 + 8 + 2 is even
            t[b, a, 2] = -v
        return t

    monkeypatch.setattr(sphere_algebra, "structure_constants", planted)
    rc, out, _ = run(capsys, ["algebra", "structure-constants", "--lmax", "8"])
    _, checks = parse_report(out)
    check = next(c for c in checks if c["name"] == check_name)
    assert rc == 1 and not check["ok"] and check["value"] > 0.1


def test_algebra_structure_constants_holds_little_beside_s_and_the_table():
    """At --lmax 12 the handler's allocations, the kernel's included, peak
    at 2 (S.nbytes + table.nbytes) or less: the checks' S-sized temporaries
    end before the row table is built (with both alive it reads 2.5)."""
    from uinf import sphere_algebra

    S = sphere_algebra.structure_constants(12)  # builds the grid and its derivative table
    args = _parse(["algebra", "structure-constants", "--lmax", "12"])
    tracemalloc.start()
    try:
        (_, table, _), _ = args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (S.nbytes + table.nbytes)


@pytest.mark.parametrize("given, missing", [("f", "--g"), ("g", "--f")])
def test_algebra_bracket_field_missing_from_flags_and_config(tmp_path, capsys, given, missing):
    path = dict(zip("fg", _field_files(tmp_path)))[given]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (given, path))
    for argv in (["--config", str(cfg)], ["--" + given, path]):
        rc, out, err = run(capsys, ["algebra", "bracket"] + argv)
        assert rc == 2 and out == ""
        assert missing in err and "--" + given not in err


def _plant_backward_error(monkeypatch):
    """solve_perturbation's solution as computed, reported with a backward error of 1e-6."""
    solve = monopole.solve_perturbation
    monkeypatch.setattr(monopole, "solve_perturbation", lambda *args, **kw: dataclasses.replace(
        solve(*args, **kw), backward_error=1e-6))


def test_monopole_perturb_checks_the_solver_backward_error(monkeypatch, capsys):
    base = ["monopole", "perturb", "--xi-max", "10", "--n", "800"]
    rc, out, _ = run(capsys, base)
    assert rc == 0
    (_, _, meta), checks = parse_report(out)
    berr = [c for c in checks if c["name"] == "backward_error"]
    assert len(berr) == 1 and berr[0]["bound"] == 1e-8
    assert 0.0 < berr[0]["value"] < 1e-14
    assert float(dict(line.split(" = ") for line in meta)["backward_error"]) == berr[0]["value"]
    _plant_backward_error(monkeypatch)
    rc, out, _ = run(capsys, base)
    assert rc == 1
    assert [c["name"] for c in parse_report(out)[1] if not c["ok"]] == ["backward_error"]


def test_monopole_perturb_fails_a_diagnostic_that_reaches_its_cap(monkeypatch, capsys):
    """The singularity diagnostic's last relative change is checked against
    its stop rule, 1e-12; at a cap of one iteration it has not converged,
    and that check fails alone, or beside a planted backward error."""
    base = ["monopole", "perturb", "--xi-max", "10", "--n", "800"]
    rc, out, _ = run(capsys, base)
    (_, _, meta), checks = parse_report(out)
    meta = dict(line.split(" = ") for line in meta)
    change = {c["name"]: c for c in checks}["diagnostic_change"]
    assert rc == 0 and change["bound"] == 1e-12 and change["ok"]
    assert float(meta["diagnostic_change"]) == change["value"]
    assert 1 < int(meta["diagnostic_iterations"]) < monopole._DIAGNOSTIC_MAX_ITER
    monkeypatch.setattr(monopole, "_DIAGNOSTIC_MAX_ITER", 1)
    for planted, failing in ((False, ["diagnostic_change"]),
                             (True, ["backward_error", "diagnostic_change"])):
        if planted:
            _plant_backward_error(monkeypatch)
        rc, out, err = run(capsys, base)
        assert rc == 1 and err == ""
        (_, _, meta), checks = parse_report(out)
        assert dict(line.split(" = ") for line in meta)["diagnostic_iterations"] == "1"
        assert [c["name"] for c in checks if not c["ok"]] == failing
        change = {c["name"]: c for c in checks}["diagnostic_change"]
        assert change["value"] > change["bound"] == 1e-12


@pytest.mark.parametrize("xi_max", ["1e-3", "0.1", "1", "1e4"])
def test_monopole_perturb_diagnostic_converges_across_cutoffs(capsys, xi_max):
    """At xi_max <= 0.1 the two smallest singular values nearly coincide;
    the block iteration still converges there and every check passes."""
    rc, out, err = run(capsys, ["monopole", "perturb", "--n", "400", "--xi-max", xi_max])
    assert (rc, err) == (0, "")
    assert all(c["ok"] for c in parse_report(out)[1])


def test_monopole_perturb_in_a_fresh_interpreter(capsys):
    """`monopole perturb` solves its response in numpy, inside main's
    floating point traps. The test process has scipy loaded already (the
    tests use it as an oracle), so only a fresh process shows that the
    command loads none: it exits 0 with the report an in-process run
    prints, and no scipy module is loaded after it."""
    argv = ["monopole", "perturb", "--n", "400"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\nfrom uinf.cli import main\nrc = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
            "sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    (header, rows, _), checks = parse_report(proc.stdout)
    assert header == "xi,K,H,K1,H1" and len(rows) == 400
    assert "backward_error" in [c["name"] for c in checks]
    assert run(capsys, argv) == (0, proc.stdout, "")


def test_monopole_perturb_with_zero_correction_exits_one(capsys):
    """A zero response has no slopes: they are written as null, named on
    stderr, and the finite check fails; it is not a usage error."""
    zeros = ["--coeff=%s=0" % name for name in sorted(monopole.SECOND_LINE_COEFFS)]
    rc, out, err = run(capsys, ["monopole", "perturb", "--n", "400"] + zeros)
    assert rc == 1
    keys = ["origin_exponent_K", "origin_exponent_H", "tail_slope_K", "tail_slope_H"]
    assert all("meta." + key in err for key in keys)
    (_, _, meta), checks = parse_report(out)
    meta = dict(line.split(" = ") for line in meta)
    assert all(meta[key] == "" for key in keys)
    assert meta["backward_error"] == "0" and meta["linearity_r_squared"] == "1"
    assert [c["name"] for c in checks if not c["ok"]] == ["finite"]


def _linearity_fit(monkeypatch, capsys, argv):
    """(rc, err, meta, checks, epsilons, energies) of a `monopole perturb`
    run; the epsilons and energies are those of its energy-linearity fit,
    the first polyfit the run makes, with the fit's scaling undone."""
    fits = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda x, y, deg: fits.append((x, y)) or polyfit(x, y, deg))
    rc, out, err = run(capsys, ["monopole", "perturb", "--n", "400"] + argv)
    (_, _, meta), checks = parse_report(out)
    meta = dict(line.split(" = ") for line in meta)
    x, energies = fits[0]
    assert len(x) == 7
    unit = float(meta["epsilon_max"]) / x.max()
    assert math.frexp(unit)[0] == 0.5 and x.max() <= 1.0 < 2.0 * x.max()  # a power of two
    return rc, err, meta, checks, x * unit, energies


def test_monopole_perturb_linear_slope_is_the_unscaled_fit(monkeypatch, capsys):
    """The energy-linearity fit runs in epsilons / 2^k, an exact scaling: at
    default flags the printed slope is, bit for bit, that of the fit in the
    epsilons themselves."""
    rc, err, meta, _, epsilons, energies = _linearity_fit(monkeypatch, capsys, [])
    assert (rc, err) == (0, "")
    assert float(meta["linear_slope"]) == float(np.polyfit(epsilons, energies, 1)[0])


def test_monopole_perturb_fits_linearity_at_tiny_epsilons(monkeypatch, capsys):
    """At --xi-max 1e60 the response is about 1.2e181, so the epsilons are
    about 2.5e-184 and their squares underflow to zero: the unscaled fit
    fails in LAPACK. The scaled fit of the energy change, in which the base
    energy (1.3e32) never enters, is a line whose slope continues the
    1e30-1e50 scaling, S grows like xi_max**3: 2.7333e91 * 1e90."""
    rc, err, meta, checks, epsilons, _ = _linearity_fit(monkeypatch, capsys, ["--xi-max", "1e60"])
    assert not np.any(epsilons ** 2)
    assert (rc, err) == (0, "") and all(c["ok"] for c in checks)
    assert float(meta["linearity_r_squared"]) >= 0.9999
    assert float(meta["linear_slope"]) == pytest.approx(2.7333e181, rel=1e-3)


def test_monopole_perturb_resolves_the_linearity_fit_at_4000_nodes(tmp_path, capsys):
    """At --xi-max 1e60 and the default --n 4000 the seven whole corrected
    energies (base 9.9e33) round to one value, but their changes from the
    base do not: the report is written with a linear fit and the run exits
    0."""
    path = tmp_path / "perturb.csv"
    rc, out, err = run(capsys, ["monopole", "perturb", "--xi-max", "1e60", "--out", str(path)])
    assert (rc, out, err) == (0, "", "")
    (_, _, meta), checks = parse_report(path.read_text())
    meta = dict(line.split(" = ") for line in meta)
    assert all(c["ok"] for c in checks)
    assert float(meta["linearity_r_squared"]) >= 0.9999
    assert float(meta["linear_slope"]) == pytest.approx(2.7333e181, rel=1e-3)
    assert float(meta["epsilon_max"]) ** 2 == 0.0


@pytest.mark.parametrize("xi_max", [
    "1e-3", "3e-3", "0.01", "0.03", "0.1", "1", "5", "25", "1e3", "1e30", "1e40", "1e50", "1e60"])
def test_monopole_perturb_energy_change_is_linear_over_the_cutoff_sweep(capsys, xi_max):
    _assert_linear_energy_change(capsys, ["--n", "400", "--xi-max", xi_max])


def _assert_linear_energy_change(capsys, argv):
    rc, out, err = run(capsys, ["monopole", "perturb"] + argv)
    (_, _, meta), checks = parse_report(out)
    meta = dict(line.split(" = ") for line in meta)
    assert float(meta["linearity_r_squared"]) >= 0.9999
    assert (rc, err) == (0, "") and all(c["ok"] for c in checks)


# Every 0.002 from 0.004 to 0.04: the band in which a change taken from
# whole corrected profiles rounded away (r^2 down to 0.63 at n 4000). Only
# n 400 and the default 4000, and no finer step, so that the sweep adds
# about 2 s to the suite: the bound is for time.
@pytest.mark.parametrize("argv", [
    *(["--n", n, "--xi-max", "%.3f" % (0.002 * k)] for n in ("400", "4000") for k in range(2, 21)),
    # a correction at the rounding unit of the profile: r^2 read 0.0106
    ["--n", "400", "--xi-max", "1e-3", "--coeff", "dh2_1mk2=1e-300"],
], ids=" ".join)
def test_monopole_perturb_energy_change_is_linear_at_small_cutoffs(capsys, argv):
    _assert_linear_energy_change(capsys, argv)


@pytest.mark.parametrize("xi_max", ["1e155", "1e300"])
def test_singular_response_operator_is_one_error_line(xi_max):
    """Far out the response operator is exactly singular; scipy's
    MatrixRankWarning would print before the error line. A fresh process,
    since pytest records warnings instead of printing them."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "uinf.cli", "monopole", "perturb", "--n", "400", "--xi-max", xi_max],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: linear solve failed: Matrix is exactly singular\n"


@pytest.mark.parametrize("kernel, failing", [
    ("yang_mills_integral", "report.covariant_identity_rel"),
    ("eps", "pointwise_residual_rel"),
])
def test_reduce_two_dim_checks_the_nested_split(monkeypatch, capsys, kernel, failing):
    """A fault in the Yang-Mills integral fails the nested split's covariant
    route, and one in eps the two-dimensional pointwise residual, alone."""
    _scale(monkeypatch, reduction, kernel)
    rc, out, _ = run(capsys, ["reduce", "two-dim", "--lmax", "2"])
    assert rc == 1
    checks = {c["name"]: c for c in parse_report(out)[1]}
    assert [name for name, c in checks.items() if not c["ok"]] == [failing]
    assert checks[failing]["bound"] == 1e-10
    nested = checks["report.vanishing_group_rel"]
    assert nested["bound"] == 1e-12 and nested["ok"]


_RATIOS = ("delta3_vs_trace3", "delta4_vs_trace4", "eps3_vs_delta3", "eps4_vs_trace4")
_ROUTE_BOUNDS = [("classification_residual_rel", 1e-10), ("covariant_identity_rel", 1e-10),
                 ("forward_scan_residual_rel", 1e-10), ("vanishing_group_rel", 1e-12)]
# every check of each subcommand's default report, with its bound, in report order;
# None is the bound that follows the grid, |discretization_estimate| of the same report
_DEFAULT_BOUNDS = {
    "identities": [(kind + "." + ratio, 1e-10) for kind in ("spread", "mean") for ratio in _RATIOS],
    "reduce scalar": _ROUTE_BOUNDS,
    "reduce ym": _ROUTE_BOUNDS,
    "reduce two-dim": [("pointwise_residual_rel", 1e-10), ("group_0_rel", 1e-12),
                       ("group_1_rel", 1e-12)] + [("report." + n, b) for n, b in _ROUTE_BOUNDS],
    "reduce scan-b": _ROUTE_BOUNDS,
    "reduce born-infeld": [("drift_min_fall", 0.0)],
    "monopole solve": [("max_residual_first", 1e-8), ("max_residual_second", 1e-8),
                       ("completed_energy_error", 1e-4), ("closed_form_remainder", None)],
    "monopole energy": [("completed_energy_error", 1e-4), ("closed_form_remainder", None)],
    "monopole perturb": [("backward_error", 1e-8), ("diagnostic_change", 1e-12),
                         ("linearity_r_squared", 0.9999)],
    "monopole scan-evb": [("completed_energy_error", 1e-4)],
    "algebra structure-constants": [("antisymmetry", 1e-12), ("selection_rule", 1e-12),
                                    ("generator_row", 1e-12)],
    "algebra su2": [("closure_residual", 1e-10), ("bracket_constant_rel", 1e-12)],
    "algebra bracket": [("antisymmetry", 1e-12)],
}


@pytest.mark.parametrize("command", _DEFAULT_BOUNDS)
def test_every_default_report_pins_its_check_bounds(tmp_path, capsys, command):
    """Each bound is its check's own: the defaults pass, each against the
    bound pinned here, and every report ends with its finite check."""
    argv = command.split()
    if command == "algebra bracket":
        fp, gp = _l8_field_files(tmp_path)[1]
        argv += ["--f", fp, "--g", gp]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    doc, checks = parse_report(out)
    keys = doc.get("breakdown") if isinstance(doc, dict) else dict(m.split(" = ") for m in doc[2])
    want = [(name, abs(float(keys["discretization_estimate"])) if bound is None else bound)
            for name, bound in _DEFAULT_BOUNDS[command]]
    assert [(c["name"], c["bound"]) for c in checks] == want + [("finite", 0.0)]


def test_missing_input_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "no.json")
    rc, _, err = run(capsys, ["algebra", "bracket", "--f", missing, "--g", missing])
    assert rc == 2
    assert err == "error: argument --f: %s: No such file or directory\n" % missing


def test_missing_config_file_names_the_flag(tmp_path, capsys):
    missing = str(tmp_path / "no.cfg")
    rc, out, err = run(capsys, ["reduce", "scalar", "--config", missing])
    assert rc == 2 and out == ""
    assert err == "error: argument --config: %s: No such file or directory\n" % missing


def test_unwritable_output_names_the_flag_not_the_temp_file(tmp_path, capsys):
    """The report is written through a temp file beside --out; a directory
    that does not exist is reported against --out, not the temp name."""
    target = str(tmp_path / "absent" / "x.json")
    rc, out, err = run(capsys, ["algebra", "su2", "--out", target])
    assert rc == 2 and out == ""
    assert err == "error: argument --out: %s: No such file or directory\n" % target
    rc, _, err = run(capsys, ["algebra", "su2", "--out", str(tmp_path)])
    assert rc == 2
    assert err == "error: argument --out: %s: Is a directory\n" % tmp_path
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("argv", [
    ["monopole", "solve"], ["monopole", "perturb"], ["monopole", "scan-evb"],
    ["reduce", "scan-b"], ["reduce", "born-infeld"], ["algebra", "structure-constants"]])
def test_csv_handlers_return_a_float_table(argv):
    """Each CSV subcommand's handler, run at default flags under main's numpy
    error state, returns (columns, table, meta) with table a 2-D float64
    array of one column per name."""
    args = _parse(argv)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        (columns, table, meta), _ = args.handler(args)
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    assert table.ndim == 2 and table.shape[1] == len(columns) and len(table) > 0
    assert isinstance(meta, dict)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--trials", "20"],
        ["reduce", "scalar", "--lmax", "2"],
        ["reduce", "ym", "--lmax", "2"],
        ["reduce", "two-dim", "--lmax", "2"],
        ["reduce", "scan-b", "--lmax", "2", "--b-list", "0.4,0.2"],
        ["reduce", "born-infeld", "--lmax", "1", "--b-list", "0.4,0.2"],
        ["monopole", "solve", "--xi-max", "10", "--n", "800"],
        ["monopole", "energy", "--xi-max", "10", "--n", "800"],
        ["monopole", "perturb", "--xi-max", "10", "--n", "800"],
        ["monopole", "scan-evb", "--xi-max", "10", "--n", "800", "--evb-list", "0.1,0.2"],
        ["algebra", "structure-constants", "--lmax", "1"],
        ["algebra", "su2"],
        ["algebra", "bracket"],
        ["monopole", "solve", "--xi-max", "25", "--n", "400"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_every_report_carries_checks_that_set_the_exit_code(tmp_path, capsys, argv):
    if argv[-1] == "bracket":
        rng = np.random.default_rng(1)
        for name in ("f", "g"):
            path = tmp_path / (name + ".json")
            path.write_text(json.dumps(random_real_field(2, rng).to_dict()))
            argv = argv + ["--" + name, str(path)]
    rc, out, _ = run(capsys, argv)
    _, checks = parse_report(out)
    assert [c["name"] for c in checks].count("finite") == 1
    assert all(set(c) == {"name", "value", "bound", "ok"} for c in checks)
    assert rc == (0 if all(c["ok"] for c in checks) else 1)


@pytest.mark.parametrize(
    "argv, rc, failing",
    [
        (["--xi-max", "10", "--n", "800"], 0, []),
        (["--xi-max", "25", "--n", "400"], 1, ["max_residual_first", "max_residual_second"]),
        (["--xi-max", "1e-9"], 1, ["completed_energy_error"]),
    ],
)
def test_monopole_solve_checks_completed_energy(capsys, argv, rc, failing):
    got, out, _ = run(capsys, ["monopole", "solve"] + argv)
    assert got == rc
    _, checks = parse_report(out)
    energy = [c for c in checks if c["name"] == "completed_energy_error"]
    assert len(energy) == 1 and energy[0]["bound"] == 1e-4
    assert sorted(c["name"] for c in checks if not c["ok"]) == failing


@pytest.mark.parametrize("argv, rc", [
    ([], 0),
    (["--xi-max", "10", "--n", "800"], 0),
    (["--xi-max", "5", "--n", "400"], 1),  # E0 0.99646
])
def test_monopole_scan_evb_checks_completed_energy(capsys, argv, rc):
    """scan-evb checks |E0_integral - 1| against the fixed bound of monopole
    solve's check."""
    got, out, _ = run(capsys, ["monopole", "scan-evb"] + argv)
    assert got == rc
    _, checks = parse_report(out)
    energy = [c for c in checks if c["name"] == "completed_energy_error"]
    assert len(energy) == 1 and energy[0]["bound"] == 1e-4
    assert [c["name"] for c in checks if not c["ok"]] == ([] if rc == 0 else ["completed_energy_error"])


def test_non_finite_report_value_is_null_and_exits_one(monkeypatch, capsys):
    real = monopole.physical_energy

    def broken(*args, **kwargs):
        return dict(real(*args, **kwargs), total=float("nan"))

    monkeypatch.setattr(monopole, "physical_energy", broken)
    rc, out, err = run(capsys, ["monopole", "energy", "--xi-max", "10", "--n", "800"])
    assert rc == 1
    doc, checks = parse_report(out)
    assert doc["physical"]["total"] is None
    assert "physical.total" in err
    assert [c for c in checks if not c["ok"]] == [
        {"name": "finite", "value": 1, "bound": 0, "ok": False}
    ]


def test_monopole_energy_integrates_the_profile_energy_once(monkeypatch, capsys):
    """The breakdown in the report, the physical estimate and the
    convergence keys share one energy integral at --n; the convergence
    keys add one at each of n/2 and n/4."""
    calls = []
    real = monopole._raw_energy

    def counted(profile):
        calls.append(profile.grid.n)
        return real(profile)

    monkeypatch.setattr(monopole, "_raw_energy", counted)
    rc, _, _ = run(capsys, ["monopole", "energy", "--xi-max", "10", "--n", "800"])
    assert rc == 0
    assert calls == [800, 400, 200]


@pytest.mark.parametrize("sub, breakdowns, residuals, fills", [
    ("solve", 1, 2, 0), ("energy", 1, 1, 1), ("scan-evb", 0, 0, 1), ("perturb", 0, 0, 1)])
def test_each_monopole_subcommand_computes_what_its_report_reads_once(
        capsys, monkeypatch, sub, breakdowns, residuals, fills):
    """A breakdown is built only where one is printed, the convergence grids
    and the evb scan integrate the energy density alone, and each subcommand
    that takes --coeff fills its coefficient table once. solve's 2 residual
    passes are its own maximum residuals and the breakdown's squared form,
    both on the same profile: sharing them would take a cache on the
    profile or a second public energy function."""
    calls = []
    for name in ("energy_breakdown", "bogomolnyi_residuals", "_filled_coeffs"):
        real = getattr(monopole, name)
        monkeypatch.setattr(monopole, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert run(capsys, ["monopole", sub])[0] == 0
    assert [calls.count(name) for name in ("energy_breakdown", "bogomolnyi_residuals",
                                           "_filled_coeffs")] == [breakdowns, residuals, fills]


def test_monopole_energy_and_scan_evb_agree_bit_for_bit(capsys):
    """monopole energy reaches the completed energy through its breakdown,
    scan-evb through the energy density alone; at one evb, cutoff, grid and
    coefficient table their shared numbers are the same doubles."""
    common = ["--xi-max", "10", "--n", "800", "--coeff", "h2_1mk2=3"]
    rc, out, _ = run(capsys, ["monopole", "energy", "--evb", "0.2"] + common)
    assert rc == 0
    physical = parse_report(out)[0]["physical"]
    rc, out, _ = run(capsys, ["monopole", "scan-evb", "--evb-list", "0.2"] + common)
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    for key in ("E0_integral", "correction_integral", "epsilon", "dE_over_E0"):
        assert row[key] == physical[key], key


CONVERGENCE_KEYS = ("discretization_estimate", "observed_order", "cutoff_remainder")


def _energy_report(capsys, argv):
    """The exit code and the breakdown of a monopole energy run."""
    rc, out, err = run(capsys, ["monopole", "energy"] + argv)
    doc, _ = parse_report(out)
    return rc, doc["breakdown"], err


def test_monopole_energy_convergence_keys_name_the_cause(capsys):
    """The failing energy check of --n 200 is the grid's: the estimate is
    within a factor 2 of the error. That of --xi-max 5 is the cutoff's: the
    remainder is all but the whole error."""
    rc, grid, _ = _energy_report(capsys, ["--n", "200"])
    assert rc == 1
    assert 0.5 <= grid["discretization_estimate"] / (grid["completed"] - 1.0) <= 2.0
    rc, cutoff, _ = _energy_report(capsys, ["--xi-max", "5"])
    assert rc == 1
    assert abs(cutoff["cutoff_remainder"]) > 0.99 * abs(cutoff["completed"] - 1.0)


@pytest.mark.parametrize("sub", ["solve", "energy"])
@pytest.mark.parametrize("n", ["16", "17", "63"])
def test_convergence_keys_are_finite_below_64_nodes(capsys, sub, n):
    """Below 64 nodes n/4 is no grid, and the estimate comes from 2n and
    4n: the report has no null cell, and it exits 1 as before, on the
    failing energy check."""
    rc, out, err = run(capsys, ["monopole", sub, "--n", n])
    doc, checks = parse_report(out)
    meta = doc["breakdown"] if sub == "energy" else dict(m.split(" = ") for m in doc[2])
    assert err == "" and all(meta[key] not in (None, "") for key in CONVERGENCE_KEYS)
    ok = {c["name"]: c["ok"] for c in checks}
    assert rc == 1 and ok["finite"] and not ok["completed_energy_error"]


def test_tiny_cutoff_keeps_its_report(capsys):
    """At --xi-max 0.001 the tail 1/xi_max dwarfs the integral and rounds the
    completed energies of the three grids to one value; the differences are
    taken between the raw integrals, so the report stands and exits 1."""
    rc, breakdown, err = _energy_report(capsys, ["--xi-max", "0.001"])
    assert rc == 1 and "error:" not in err
    assert all(math.isfinite(breakdown[key]) for key in CONVERGENCE_KEYS)


@pytest.mark.parametrize("n", ["17", "18"])
def test_convergence_keys_beyond_the_grids_range_are_null(capsys, n):
    """At --xi-max 1e111 the grids never resolve the core, on odd and even
    --n alike: the order is finite but outside [2, 4], so the estimate and
    the remainder are written as null and named on stderr, and the report
    stays, exiting 1."""
    rc, out, err = run(capsys, ["monopole", "solve", "--xi-max", "1e111", "--n", n])
    assert rc == 1 and err == ("error: 2 non-finite value(s) written as null: "
                               "meta.discretization_estimate, meta.cutoff_remainder\n")
    meta = dict(ln[2:].split(" = ") for ln in out.splitlines() if ln.startswith("# "))
    assert meta["discretization_estimate"] == meta["cutoff_remainder"] == ""
    assert math.isfinite(float(meta["observed_order"])) and not 2 <= float(meta["observed_order"]) <= 4
    assert "check.completed_energy_error" in meta


@pytest.mark.parametrize("sub", ["solve", "energy"])
def test_unresolved_grid_is_not_blamed_on_the_cutoff(capsys, sub):
    """At --xi-max 1e6 the grids never resolve the core and the order is
    -1: the estimate and the remainder are written as null and named on
    stderr, the order stays, and the run exits 1 on its energy check."""
    rc, out, err = run(capsys, ["monopole", sub, "--xi-max", "1e6"])
    doc, checks = parse_report(out)
    meta = doc["breakdown"] if sub == "energy" else dict(m.split(" = ") for m in doc[2])
    assert rc == 1 and err.startswith("error: 2 non-finite value(s)")
    assert "discretization_estimate" in err and "cutoff_remainder" in err
    assert meta["discretization_estimate"] in (None, "") and meta["cutoff_remainder"] in (None, "")
    assert float(meta["observed_order"]) == pytest.approx(-1.0, abs=1e-6)
    assert not {c["name"]: c["ok"] for c in checks}["completed_energy_error"]


def _without_convergence_keys(text):
    """The report text with the three keys taken out of the JSON breakdown
    (and the rest rendered as the CLI renders it) or out of the CSV meta,
    and the closed_form_remainder check out of its checks."""
    if text.startswith("{"):
        doc = json.loads(text)
        for key in CONVERGENCE_KEYS:
            del doc["breakdown"][key]
        doc["checks"] = [c for c in doc["checks"] if c["name"] != "closed_form_remainder"]
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if ln.split(" = ")[0][2:] not in CONVERGENCE_KEYS + ("check.closed_form_remainder",))


@pytest.mark.parametrize("sub", ["solve", "energy"])
def test_convergence_keys_are_the_only_addition(monkeypatch, capsys, sub):
    """At default flags the report without the three keys and their
    closed_form_remainder check is, byte for byte, the one the handler
    writes when the convergence step adds neither."""
    rc, out, _ = run(capsys, ["monopole", sub])
    assert rc == 0 and all(out.count('"%s"' % key) + out.count("# %s = " % key) == 1
                           for key in CONVERGENCE_KEYS)
    monkeypatch.setattr(cli, "_convergence", lambda profile, breakdown: ({}, []))
    assert run(capsys, ["monopole", sub]) == (0, _without_convergence_keys(out), "")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_broken_perturbation_response_is_reported(capsys):
    """A coefficient that overflows the response leaves null cells, names
    them on stderr and exits 1, instead of a failed fit."""
    rc, out, err = run(capsys, ["monopole", "perturb", "--xi-max", "10", "--n", "800",
                                "--coeff", "h2_kprime2=1e308"])
    assert rc == 1
    assert "rows[0][3]" in err
    lines = out.splitlines()
    finite = [ln for ln in lines if ln.startswith("# check.finite = ")]
    assert len(finite) == 1 and finite[0].endswith(" ok=False")
    assert lines[-1].endswith(",,")


@pytest.mark.parametrize(
    "argv, key, value, flag",
    [
        (["reduce", "scan-b"], "b_list", "1,1", "--b-list"),
        (["reduce", "scan-b"], "b_list", "0.4,0", "--b-list"),
        (["reduce", "born-infeld"], "b_list", "0.1", "--b-list"),
        (["reduce", "born-infeld"], "b_list", "0.1,0.1", "--b-list"),
        (["reduce", "born-infeld"], "b_list", "0.4,nan", "--b-list"),
        (["identities"], "trials", "0", "--trials"),
        (["monopole", "energy"], "coeff", "h2_kprime2=nan", "--coeff"),
        (["monopole", "energy"], "e", "0", "--e"),
        (["monopole", "perturb"], "coeff", "h2_kprime2=inf", "--coeff"),
        (["monopole", "scan-evb"], "evb_list", "nan", "--evb-list"),
        (["monopole", "solve"], "xi_max", "nan", "--xi-max"),
        (["monopole", "energy"], "xi_max", "-1", "--xi-max"),
        (["monopole", "perturb"], "xi_max", "inf", "--xi-max"),
        (["monopole", "energy"], "b", "0", "--b"),
        (["monopole", "scan-evb"], "b", "0", "--b"),
        (["reduce", "scalar"], "b", "0", "--b"),
        (["reduce", "scalar"], "b", "nan", "--b"),
        (["reduce", "born-infeld"], "alpha", "0", "--alpha"),
        (["reduce", "born-infeld"], "alpha", "nan", "--alpha"),
        (["monopole", "solve"], "n", "8", "--n"),
        (["algebra", "structure-constants"], "lmax", "-1", "--lmax"),
        (["reduce", "scalar"], "amplitude", "nan", "--amplitude"),
        (["monopole", "energy"], "v", "nan", "--v"),
        (["monopole", "scan-evb"], "beta", "nan", "--beta"),
        (["monopole", "energy"], "evb", "nan", "--evb"),
        (["reduce", "born-infeld"], "C", "nan", "--C"),
        (["monopole", "solve"], "xi_max", "abc", "--xi-max"),
        (["reduce", "born-infeld"], "C", "0", "--C"),
        (["reduce", "born-infeld"], "D", "1", "--D"),
        (["reduce", "scalar"], "D", "0", "--D"),
        (["reduce", "ym"], "D", "0", "--D"),
        (["reduce", "scan-b"], "D", "0", "--D"),
        (["reduce", "born-infeld"], "D", "0", "--D"),
        (["identities"], "seed", "-1", "--seed"),
        (["identities"], "dims", "abc", "--dims"),
        (["identities"], "dims", "2,3,4", "--dims"),
        (["algebra", "structure-constants"], "lmax", "0", "--lmax"),
        (["monopole", "energy"], "coeff", "zzz=1", "--coeff"),
        (["monopole", "perturb"], "coeff", "zzz=1", "--coeff"),
        (["monopole", "scan-evb"], "coeff", "zzz=1", "--coeff"),
        (["reduce", "born-infeld"], "alpha", "100", "--alpha"),
        (["reduce", "born-infeld"], "amplitude", "5", "--amplitude"),
        (["reduce", "born-infeld"], "b_list", "1e-300,1", "--b-list"),
        (["monopole", "energy"], "coeff", "", "--coeff"),
        (["monopole", "energy"], "coeff", ",", "--coeff"),
    ],
)
def test_bad_input_is_usage_error_naming_the_flag(tmp_path, capsys, argv, key, value, flag):
    rc, out, err = run(capsys, argv + [flag, value])
    assert rc == 2 and out == ""
    assert flag in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (key, value))
    rc, out, err = run(capsys, argv + ["--config", str(cfg)])
    assert rc == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "scan-b", "--amplitude", "0"],
        ["reduce", "two-dim", "--amplitude", "0"],
        ["reduce", "born-infeld", "--amplitude", "0"],
        ["reduce", "scan-b", "--b-list", "1e-300,1"],
        ["reduce", "scalar", "--b", "1e-100"],
        ["reduce", "scalar", "--e", "1e-200"],
        ["monopole", "energy", "--b", "1e-200"],
        ["monopole", "energy", "--e", "1e-200"],
        ["reduce", "scalar", "--b", "1e80"],
        ["monopole", "energy", "--evb", "1e100"],
        ["monopole", "scan-evb", "--b", "1e200"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_arithmetic_failure_is_an_error_line_not_a_traceback(capsys, argv):
    """Finite inputs whose arithmetic divides by zero or overflows exit 1
    with one error line: no uncaught exception, and no numpy warning first,
    since numpy raises where the failure starts."""
    if argv[0] == "monopole":
        argv = argv + ["--xi-max", "10", "--n", "800"]
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sub", ["scalar", "ym", "two-dim", "scan-b", "born-infeld"])
def test_overflow_on_finite_input_is_an_arithmetic_failure(capsys, sub):
    """Fields that overflow to inf on the grid end the run with exit 1 and
    one error line, like the other arithmetic failures, not with a usage
    error or a numpy warning first."""
    rc, out, err = run(capsys, ["reduce", sub, "--amplitude", "1e200"])
    assert rc == 1 and out == ""
    assert err.startswith("error: arithmetic failed") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "reduce scalar --b 1e100", "reduce ym --b 1e90", "reduce two-dim --b 1e80",
    "reduce scan-b --b-list 1e100,1", "reduce born-infeld --b-list 1e160,1",
    "monopole energy --b 1e200", "monopole energy --e 1e110", "monopole energy --evb 1e100",
    "monopole scan-evb --evb-list 1e100,2",
])
def test_python_float_overflow_names_the_overflow(capsys, argv):
    """A Python float that overflows raises OverflowError(errno, reason):
    the error line says overflow and gives the reason, not the tuple."""
    if argv.startswith("monopole"):
        argv += " --xi-max 10 --n 800"
    rc, out, err = run(capsys, argv.split())
    assert rc == 1 and out == ""
    assert "overflow" in err and "(34," not in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["algebra", "structure-constants", "--lmax", "1000"],  # a 7.1 PiB table
    ["monopole", "solve", "--n", "100000000000000"],  # a 728 TiB radial grid
])
def test_out_of_memory_is_an_error_line_not_a_traceback(capsys, argv):
    """Each first array exceeds the 128 TiB x86-64 user address space, so
    numpy refuses it at once without touching memory; the run exits 1 with
    one error line."""
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_a_handler_key_error_is_not_a_usage_error(monkeypatch):
    """Exit 2 means bad flags or input, and no input raises a KeyError: a
    handler that reads a key its report lacks raises it, not exit 2."""
    real = monopole.perturbation_report

    def without_backward_error(*args, **kw):
        rep = real(*args, **kw)
        del rep["backward_error"]
        return rep

    monkeypatch.setattr(monopole, "perturbation_report", without_backward_error)
    with pytest.raises(KeyError, match="backward_error"):
        main(["monopole", "perturb", "--xi-max", "10", "--n", "800"])


_BAD_FIELDS = [
    [1, 2],
    "field",
    {"l_max": None},
    {"l_max": 1, "coeffs": 5},
    {"l_max": 1, "coeffs": [7]},
    {"l_max": 1, "coeffs": [{"l": 1, "re": 1.0, "im": 0.0}]},
    {"l_max": -1},
    {"l_max": 1, "coeffs": [{"l": 1, "m": 0, "re": 1.0}, {"l": 1, "m": 0, "re": 5.0}]},
]


@pytest.mark.parametrize("payload", _BAD_FIELDS, ids=[
    "array", "string", "null_l_max", "number_coeffs", "number_entry", "entry_without_m",
    "negative_l_max", "duplicate_entry"])
def test_malformed_field_file_is_usage_error_naming_the_flag(tmp_path, capsys, payload):
    good, _ = _field_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for flag, argv in (("--f", ["--f", str(bad), "--g", good]),
                       ("--g", ["--f", good, "--g", str(bad)])):
        rc, out, err = run(capsys, ["algebra", "bracket"] + argv)
        assert rc == 2 and out == ""
        assert "argument %s:" % flag in err and "Traceback" not in err


@pytest.mark.parametrize("sub", ["energy", "scan-evb"])
def test_energy_reports_record_the_coefficients_used(capsys, sub):
    """The full coefficient table, overrides applied, is in the report meta,
    so runs with different --coeff values can be told apart."""
    base = ["monopole", sub, "--xi-max", "10", "--n", "800"]
    rc, out, _ = run(capsys, base + ["--coeff", "xi2_1mk4=3"])
    assert rc == 0
    doc, _ = parse_report(out)
    meta = doc["meta"] if sub == "energy" else dict(m.split(" = ") for m in doc[2])
    recorded = {k[len("coeff_"):]: float(v) for k, v in meta.items() if k.startswith("coeff_")}
    assert recorded == dict(monopole.SECOND_LINE_COEFFS, xi2_1mk4=3.0)


def test_identities_reports_the_dims_it_ran(capsys):
    rc, out, _ = run(capsys, ["identities", "--dims", "4,3,4,3", "--trials", "20"])
    assert rc == 0
    assert json.loads(out)["meta"]["dims"] == [3, 4]


def test_config_coeff_line_matches_the_flags(tmp_path, capsys):
    base = ["monopole", "perturb", "--xi-max", "10", "--n", "800"]
    flags = run(capsys, base + ["--coeff", "h2_kprime2=0", "--coeff", "xi2_1mk4=0"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coeff = h2_kprime2=0, xi2_1mk4=0\n")
    assert run(capsys, base + ["--config", str(cfg)]) == flags
    assert flags[0] == 0 and "coeff_xi2_1mk4 = 0\n" in flags[1]


@pytest.mark.parametrize("explicit", [["--coeff", "xi2_1mk4=0"], ["--coeff=xi2_1mk4=0"]])
def test_explicit_coeff_replaces_the_config_pairs(tmp_path, capsys, explicit):
    base = ["monopole", "perturb", "--xi-max", "10", "--n", "800"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coeff = h2_kprime2=0\n")
    alone = run(capsys, base + explicit)
    assert run(capsys, base + ["--config", str(cfg)] + explicit) == alone
    assert run(capsys, base + ["--config", str(cfg)]) != alone


def test_config_out_is_a_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = 5\n")
    rc, out, err = run(capsys, ["algebra", "su2", "--config", "run.cfg"])
    assert (rc, out, err) == (0, "", "")
    assert json.loads((tmp_path / "5").read_text())["meta"]["command"] == "algebra su2"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_out_file_mode_follows_the_umask(tmp_path, capsys, umask):
    path = tmp_path / "su2.json"
    old = os.umask(umask)
    try:
        rc = main(["algebra", "su2", "--out", str(path)])
    finally:
        os.umask(old)
    capsys.readouterr()
    assert rc == 0
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def _options(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _options(sub)
        elif action.option_strings and action.nargs != 0:
            yield parser.prog, action


def test_every_value_flag_has_a_rule():
    """Each flag that takes a value converts and checks it with a type of
    the flag table (not bare int or float, which let nan, inf and
    out-of-range values through); paths and choices are the exceptions."""
    exempt = {"--config", "--out", "--f", "--g"}
    progs = set()
    for prog, action in _options(build_parser()):
        progs.add(prog)
        flag = action.option_strings[0]
        if flag == "--signature":
            assert action.choices, prog
        elif flag not in exempt:
            assert callable(action.type) and action.type not in (int, float, str), (prog, flag)
    assert len(progs) == 13


# Values at the edges of each flag's rule: signed zeros, subnormals, 1e+-300,
# inf, nan, non-numbers, an empty value and a plain valid one.
_FLOAT_EDGES = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e300", "-1e300",
                "inf", "-inf", "nan", "abc", "", "1", "0.25"]
# Paths that name no file: a missing config or field file, an unwritable --out.
_NO_FILE = ["no-such-dir/file.json"]
_EDGES = {
    "--seed": ["0", "-0", "7", "-1", "1e300", "nan", "abc", "", "18446744073709551616"],
    "--config": _NO_FILE,
    "--out": _NO_FILE,
    "--f": _NO_FILE,
    "--g": _NO_FILE,
    "--signature": ["euclidean", "lorentzian", "abc", ""],
    # the monopole cutoffs of past failures found by hand: the 1e60 underflow,
    # the 1e111 overflow whose message the parity of --n decided, the 1e155
    # singular warning and the 1e-160 zero divisor; and 1e-50, where perturb
    # writes null cells that only the finite check fails
    "--xi-max": _FLOAT_EDGES + ["1e-160", "1e-50", "1e-3", "25", "1e60", "1e111", "1e155"],
    "--coeff": ["h2_kprime2=1e308", "xi2_1mk4=0", "h2_1mk2=-1e300", "kprime2_1mk2=5e-324",
                "dh2_1mk2=nan", "zzz=1", "abc", ""],
    "--evb-list": ["0.1,0.2", "-0", "1e300,0", "5e-324", "nan", "abc", ""],
    "--b-list": ["0.4,0.2", "0.1,0.4,0.05", "1e-300,1", "1e300,1", "1,1", "0.1", "0.1,0",
                 "inf,1", "abc", ""],
    # the flags whose size sets the run time: drawn only from small values
    # (and invalid ones), so that the property adds at most 2 s to tier-1
    "--n": ["16", "17", "64", "401", "15", "-0", "1e300", "nan", "16.5", ""],
    "--lmax": ["0", "1", "2", "3", "-1", "1e300", "nan", ""],
    "--trials": ["1", "3", "0", "-1", "1e300", "nan", ""],
    "--dims": ["3,4", "4,3,5", "3,4,4", "2,3,4", "3", "3,4,nan", "abc", ""],
    "--D": ["0", "1", "2", "4", "5", "-1", "1e300", "nan", ""],
}
# defaults too slow for the property (--n 4000, --trials 500, --dims 3,4,6),
# placed ahead of the drawn flags, which override them
_FAST = ["--n", "16", "--trials", "2", "--dims", "3,4"]


def _value_flags():
    """{command path: its value flags}, read off the parser."""
    table = {}
    for prog, action in _options(build_parser()):
        table.setdefault(tuple(prog.split()[1:]), []).append(action.option_strings[0])
    return table


_VALUE_FLAGS = _value_flags()


@pytest.mark.parametrize("path", sorted(_VALUE_FLAGS), ids=" ".join)
def test_no_command_takes_tol(tmp_path, capsys, path):
    """Every bound is fixed where its check is built: --tol is an unknown
    flag, and tol an unknown config key, of every command; --help shows none."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 5\n")
    for argv in (["--tol", "5"], ["--config", str(cfg)]):
        rc, out, err = run(capsys, list(path) + argv)
        assert rc == 2 and out == ""
        assert "--tol" in err
    rc, out, _ = run(capsys, list(path) + ["--help"])
    assert rc == 0 and "--tol" not in out


@st.composite
def _argvs(draw):
    """A command path, the fast defaults it takes, and up to three of its
    value flags, each with a value from its edges."""
    path = draw(st.sampled_from(sorted(_VALUE_FLAGS)))
    flags = _VALUE_FLAGS[path]
    argv = list(path)
    for flag, value in zip(_FAST[::2], _FAST[1::2]):
        if flag in flags:
            argv += [flag, value]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(_EDGES.get(flag, _FLOAT_EDGES)))]
    return argv


def _null_cells(out):
    """The null and non-finite numbers a report prints: JSON null, NaN and
    Infinity, or the empty, nan, inf and None cells of CSV meta lines, check
    lines and rows."""
    if out.startswith("{"):
        return re.findall(r"\b(?:null|NaN|Infinity)\b", out)
    cells = []
    for line in out.splitlines():
        if line.startswith("# check."):
            cells += [field.partition("=")[2] for field in line.split(" = ", 1)[1].split(" ")]
        elif line.startswith("# "):
            cells += line.split(" = ", 1)[1].strip("[]").split(", ")
        else:
            cells += line.split(",")
    return [c for c in cells if c.strip().lower() in ("", "nan", "inf", "-inf", "none", "null")]


@settings(max_examples=100, deadline=None)  # the count is bounded for time, like the draws
@given(argv=_argvs())
@example(argv=["monopole", "solve", "--n", "16", "--xi-max", "1e111"])
@example(argv=["monopole", "solve", "--n", "17", "--xi-max", "1e111"])
@example(argv=["monopole", "perturb", "--n", "400", "--xi-max", "1e155"])
@example(argv=["monopole", "energy", "--n", "401", "--xi-max", "1e60"])
@example(argv=["monopole", "perturb", "--n", "17", "--xi-max", "1e-50"])
def test_every_command_keeps_the_cli_contract(argv):
    """Over the flag table, at the edges of each rule: the exit code is 0, 1
    or 2 and no exception escapes; exit 2 names a flag of the command; exit 0
    prints no null or non-finite number; and exit 1 comes with an error line
    or a failed check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2) and "Traceback" not in err
    if rc == 2:
        flags = next(flags for path, flags in _VALUE_FLAGS.items() if argv[:len(path)] == list(path))
        assert any(flag in err for flag in flags), err
    if rc == 0:
        assert not _null_cells(out), out
    if rc == 1:
        assert "error: " in err or re.search(r"ok=False|\"ok\": false", out)
