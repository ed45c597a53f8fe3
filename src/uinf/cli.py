"""Command line front end.

Subcommands mirror the package layout: ``identities`` for the contraction
ratio suite, ``reduce`` for the sphere-to-spacetime splits, ``monopole``
for the radial profile workbench, ``algebra`` for harmonic utilities.

Exit codes: 0 on success, 1 when a numerical identity or solver check
fails, 2 on configuration errors (bad flags, bad config file, unreadable
input).  Output is deterministic byte for byte for a fixed command line:
all randomness flows from --seed and nothing timestamps itself.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, monopole, reduction, reports, sphere_algebra, tensor_kernels
from .gauge_fields import random_adjoint_scalar, random_gauge_config
from .reduction import Background, BlockMetric
from .sphere_algebra import HarmonicField


def _parse_floats(text):
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("empty list: %r" % text)
    return [float(t) for t in items]


def _parse_ints(text):
    return [int(t) for t in text.split(",") if t.strip()]


def _default_spacetime(dim):
    diag = np.ones(dim)
    diag[0] = -1.0
    return np.diag(diag)


def _emit(args, text):
    if args.out:
        reports.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _meta(args, **extra):
    meta = {"version": __version__, "command": args.command_path, "seed": args.seed}
    meta.update(extra)
    return meta


def _tol(args, default):
    return default if args.tol is None else float(args.tol)


def _parse_coeffs(pairs):
    table = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError("coefficient override must look like name=value: %r" % pair)
        table[name.strip()] = float(value)
    return table


# ---------------------------------------------------------------------------
# config files: plain "key = value" lines, merged under explicit flags


def _read_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError("config line without '=': %r" % raw.strip())
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _flag_given(argv, dest):
    flag = "--" + dest.replace("_", "-")
    return any(tok == flag or tok.startswith(flag + "=") for tok in argv)


def _convert_like(current, text):
    if isinstance(current, bool):
        return text.lower() in ("1", "true", "yes", "on")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, list):
        return [t.strip() for t in text.split(",") if t.strip()]
    if current is None:
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                pass
    return text


def _apply_config(args, argv):
    values = _read_config(args.config)
    for key, text in values.items():
        if key in ("handler", "command_path", "config") or not hasattr(args, key):
            raise ValueError("unknown config key: %s" % key)
        if _flag_given(argv, key):
            continue
        setattr(args, key, _convert_like(getattr(args, key), text))


# ---------------------------------------------------------------------------
# handlers


def cmd_identities(args):
    dims = tuple(_parse_ints(args.dims))
    rng = np.random.default_rng(args.seed)
    suite = tensor_kernels.identity_suite(
        dims=dims, trials=args.trials, rng=rng, signature=args.signature
    )
    tol = _tol(args, 1e-10)
    payload = {
        "meta": _meta(args, dims=list(dims), trials=args.trials,
                      signature=args.signature, spread_tolerance=tol),
        "ratios": suite,
    }
    _emit(args, reports.render_json(payload))
    worst = max(entry["spread"] for entry in suite.values())
    return 0 if worst <= tol else 1


def _background(args):
    if not (np.isfinite(args.e) and args.e != 0.0):
        raise ValueError("--e must be finite and nonzero, got %r" % args.e)
    return Background(args.e)


def _drawn_reduction_inputs(args, dim, want_scalar):
    bg = _background(args)
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(dim, args.lmax, rng, amplitude=args.amplitude)
    scal = random_adjoint_scalar(dim, args.lmax, rng, amplitude=args.amplitude) if want_scalar else None
    metric = BlockMetric(_default_spacetime(dim), args.b)
    return cfg, scal, metric, bg


def _reduce_exit(rep, tol):
    checks = (
        rep["classification_residual_rel"],
        rep["covariant_identity_rel"],
        rep["forward_scan_residual_rel"],
    )
    ok = all(c <= tol for c in checks) and rep["vanishing_group_rel"] <= 1e-12
    return 0 if ok else 1


def cmd_reduce_scalar(args):
    cfg, scal, metric, bg = _drawn_reduction_inputs(args, args.D, True)
    rep = reduction.reduce_scalar(cfg, scal, metric, bg)
    payload = {"meta": _meta(args, amplitude=args.amplitude), "report": rep}
    _emit(args, reports.render_json(payload))
    return _reduce_exit(rep, _tol(args, 1e-10))


def cmd_reduce_ym(args):
    cfg, _, metric, bg = _drawn_reduction_inputs(args, args.D, False)
    rep = reduction.reduce_yang_mills(cfg, metric, bg)
    payload = {"meta": _meta(args, amplitude=args.amplitude), "report": rep}
    _emit(args, reports.render_json(payload))
    return _reduce_exit(rep, _tol(args, 1e-10))


def cmd_reduce_two_dim(args):
    cfg, _, metric, bg = _drawn_reduction_inputs(args, 2, False)
    rep = reduction.two_dim_report(cfg, metric, bg)
    payload = {"meta": _meta(args, amplitude=args.amplitude), "report": rep}
    _emit(args, reports.render_json(payload))
    tol = _tol(args, 1e-10)
    ok = (
        rep["pointwise_residual_rel"] <= tol
        and rep["group_0_rel"] <= 1e-12
        and rep["group_1_rel"] <= 1e-12
    )
    return 0 if ok else 1


def cmd_reduce_scan_b(args):
    b_list = _parse_floats(args.b_list)
    bg = _background(args)
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(args.D, args.lmax, rng, amplitude=args.amplitude)
    scal = random_adjoint_scalar(args.D, args.lmax, rng, amplitude=args.amplitude)
    scan = reduction.b_scan(cfg, scal, _default_spacetime(args.D), bg, b_list)
    columns = ["b", "q", "covariant_group", "residual_group_1",
               "residual_group_0", "ratio", "fit_exponent"]
    rows = [[row[c] for c in columns] for row in scan["rows"]]
    meta = _meta(args, D=args.D, e=args.e, lmax=args.lmax, amplitude=args.amplitude,
                 fit_exponent=scan["fit_exponent"])
    _emit(args, reports.render_csv(columns, rows, meta))
    return 0


def cmd_reduce_born_infeld(args):
    b_list = _parse_floats(args.b_list)
    bg = _background(args)
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(args.D, args.lmax, rng, amplitude=args.amplitude)
    spacetime = _default_spacetime(args.D)
    reps = [
        reduction.born_infeld_report(cfg, BlockMetric(spacetime, b), bg, args.alpha, C=args.C)
        for b in b_list
    ]
    columns = ["b", "alpha", "lhs", "rhs", "ratio", "drift"]
    rows = [[rep[c] for c in columns] for rep in reps]
    meta = _meta(args, D=args.D, e=args.e, lmax=args.lmax, amplitude=args.amplitude, C=args.C)
    _emit(args, reports.render_csv(columns, rows, meta))
    drifts = [rep["drift"] for rep in reps]
    ok = all(b - a > 0 for a, b in zip(drifts[1:], drifts[:-1]))
    return 0 if ok or len(drifts) < 2 else 1


def cmd_monopole_solve(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    r1, r2 = monopole.bogomolnyi_residuals(profile)
    worst = max(np.abs(r1).max(), np.abs(r2).max())
    breakdown = monopole.energy_breakdown(profile)
    meta = _meta(args, xi_max=args.xi_max, n=args.n,
                 max_residual_first=float(np.abs(r1).max()),
                 max_residual_second=float(np.abs(r2).max()),
                 completed_energy=breakdown.completed)
    rows = zip(grid.xi, profile.K, profile.H)
    _emit(args, reports.render_csv(["xi", "K", "H"], rows, meta))
    return 0 if worst <= _tol(args, 1e-8) else 1


def cmd_monopole_energy(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    breakdown = monopole.energy_breakdown(profile)
    physical = monopole.physical_energy(
        profile, args.evb, v=args.v, beta=args.beta, e=args.e, b=args.b,
        coeffs=_parse_coeffs(args.coeff),
    )
    payload = {
        "meta": _meta(args, xi_max=args.xi_max, n=args.n),
        "breakdown": vars(breakdown),
        "physical": physical,
    }
    _emit(args, reports.render_json(payload))
    return 0 if abs(breakdown.completed - 1.0) <= _tol(args, 1e-4) else 1


def cmd_monopole_perturb(args):
    coeffs = _parse_coeffs(args.coeff)
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    pert = monopole.solve_perturbation(profile, coeffs=coeffs)
    if not (np.isfinite(pert.K1).all() and np.isfinite(pert.H1).all()):
        print("error: perturbation solve produced non-finite values", file=sys.stderr)
        return 1
    rep = monopole.perturbation_report(profile, pert=pert)
    meta = _meta(args, **rep)
    for name in sorted(pert.coeffs):
        meta["coeff_%s" % name] = pert.coeffs[name]
    rows = zip(grid.xi, profile.K, profile.H, pert.K1, pert.H1)
    _emit(args, reports.render_csv(["xi", "K", "H", "K1", "H1"], rows, meta))
    return 0


def cmd_monopole_scan_evb(args):
    evb_list = _parse_floats(args.evb_list)
    rows_data = monopole.energy_scan(
        evb_list, xi_max=args.xi_max, n=args.n, v=args.v, beta=args.beta,
        e=args.e, b=args.b, coeffs=_parse_coeffs(args.coeff),
    )
    columns = ["evb", "epsilon", "E0_integral", "correction_integral", "dE_over_E0", "cutoff"]
    rows = [[row[c] for c in columns] for row in rows_data]
    meta = _meta(args, xi_max=args.xi_max, n=args.n, v=args.v, beta=args.beta,
                 e=args.e, b=args.b, prefactor=rows_data[0]["prefactor"],
                 quantization_ok=rows_data[0]["quantization_ok"])
    _emit(args, reports.render_csv(columns, rows, meta))
    return 0


def cmd_algebra_structure_constants(args):
    tensor = sphere_algebra.structure_constants(args.lmax)
    labels = [(l, m) for l in range(args.lmax + 1) for m in range(-l, l + 1)]
    columns = ["l1", "m1", "l2", "m2", "l3", "m3", "re", "im"]
    rows = []
    for i, (l1, m1) in enumerate(labels):
        for j, (l2, m2) in enumerate(labels):
            for k, (l3, m3) in enumerate(labels):
                value = tensor[i, j, k]
                if abs(value) < 1e-12:
                    continue
                rows.append([l1, m1, l2, m2, l3, m3, value.real, value.imag])
    meta = _meta(args, lmax=args.lmax, threshold=1e-12, entries=len(rows))
    _emit(args, reports.render_csv(columns, rows, meta))
    return 0


def cmd_algebra_su2(args):
    gen = sphere_algebra.su2_generators()
    payload = {
        "meta": _meta(args),
        "basis": gen.basis,
        "bracket_constant": gen.c,
        "closure_residual": gen.closure_residual,
        "printed_residual": gen.printed_residual,
        "substituted": gen.substituted,
        "generators": [t.to_dict() for t in gen.as_tuple()],
    }
    _emit(args, reports.render_json(payload))
    return 0 if gen.closure_residual <= _tol(args, 1e-10) else 1


def cmd_algebra_bracket(args):
    with open(args.f) as fh:
        f = HarmonicField.from_dict(json.load(fh))
    with open(args.g) as fh:
        g = HarmonicField.from_dict(json.load(fh))
    result = sphere_algebra.bracket(f, g)
    payload = {"meta": _meta(args), "result": result.to_dict()}
    _emit(args, reports.render_json(payload))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random generator seed")
    common.add_argument("--config", default=None,
                        help="file of key = value lines merged under explicit flags")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--tol", default=None,
                        help="override the command's pass/fail tolerance")

    parser = argparse.ArgumentParser(prog="uinf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    p = top.add_parser("identities", parents=[common],
                       help="contraction identity ratio suite over random draws")
    p.add_argument("--dims", default="3,4,6", help="comma list of dimensions")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--signature", choices=["euclidean", "lorentzian"], default="euclidean")
    p.set_defaults(handler=cmd_identities, command_path="identities")

    reduce_p = top.add_parser("reduce", help="sphere-to-spacetime splits")
    reduce_sub = reduce_p.add_subparsers(dest="subcommand", required=True)

    def add_reduce(name, handler, **defaults):
        sp = reduce_sub.add_parser(name, parents=[common])
        sp.add_argument("--e", type=float, default=2.0, help="background coupling")
        sp.add_argument("--lmax", type=int, default=defaults.get("lmax", 3))
        sp.add_argument("--amplitude", type=float, default=defaults.get("amplitude", 0.4))
        if defaults.get("dim_flag", True):
            sp.add_argument("--D", type=int, default=4, help="spacetime dimension")
        if defaults.get("b_flag", True):
            sp.add_argument("--b", type=float, default=1.0, help="sphere radius")
        sp.set_defaults(handler=handler, command_path="reduce %s" % name)
        return sp

    add_reduce("scalar", cmd_reduce_scalar)
    add_reduce("ym", cmd_reduce_ym)
    add_reduce("two-dim", cmd_reduce_two_dim, dim_flag=False)
    sp = add_reduce("scan-b", cmd_reduce_scan_b, b_flag=False)
    sp.add_argument("--b-list", default="0.4,0.2,0.1,0.05")
    sp = add_reduce("born-infeld", cmd_reduce_born_infeld, b_flag=False,
                    lmax=2, amplitude=0.25)
    sp.add_argument("--b-list", default="0.4,0.2,0.1,0.05")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--C", type=float, default=1.0)

    mono_p = top.add_parser("monopole", help="radial profile workbench")
    mono_sub = mono_p.add_subparsers(dest="subcommand", required=True)

    def add_mono(name, handler, coeff=False, physical=False):
        sp = mono_sub.add_parser(name, parents=[common])
        sp.add_argument("--xi-max", type=float, default=25.0)
        sp.add_argument("--n", type=int, default=4000)
        if coeff:
            sp.add_argument("--coeff", action="append", default=None,
                            metavar="NAME=VALUE",
                            help="override a correction coefficient (repeatable)")
        if physical:
            sp.add_argument("--v", type=float, default=1.0)
            sp.add_argument("--beta", type=float, default=1.0)
            sp.add_argument("--e", type=float, default=2.0)
            sp.add_argument("--b", type=float, default=1.0)
        sp.set_defaults(handler=handler, command_path="monopole %s" % name)
        return sp

    add_mono("solve", cmd_monopole_solve)
    sp = add_mono("energy", cmd_monopole_energy, coeff=True, physical=True)
    sp.add_argument("--evb", type=float, default=0.1)
    add_mono("perturb", cmd_monopole_perturb, coeff=True)
    sp = add_mono("scan-evb", cmd_monopole_scan_evb, coeff=True, physical=True)
    sp.add_argument("--evb-list", default="0.1,0.2,0.3")

    alg_p = top.add_parser("algebra", help="harmonic field utilities")
    alg_sub = alg_p.add_subparsers(dest="subcommand", required=True)

    sp = alg_sub.add_parser("structure-constants", parents=[common])
    sp.add_argument("--lmax", type=int, default=3)
    sp.set_defaults(handler=cmd_algebra_structure_constants,
                    command_path="algebra structure-constants")

    sp = alg_sub.add_parser("su2", parents=[common])
    sp.set_defaults(handler=cmd_algebra_su2, command_path="algebra su2")

    sp = alg_sub.add_parser("bracket", parents=[common])
    sp.add_argument("--f", required=True, help="JSON file with the first field")
    sp.add_argument("--g", required=True, help="JSON file with the second field")
    sp.set_defaults(handler=cmd_algebra_bracket, command_path="algebra bracket")

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.config:
            _apply_config(args, argv)
        return args.handler(args)
    except np.linalg.LinAlgError as exc:
        print("error: linear solve failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
