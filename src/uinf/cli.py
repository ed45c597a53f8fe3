"""Command line front end.

Subcommands mirror the package layout: ``identities`` for the contraction
ratio suite, ``reduce`` for the sphere-to-spacetime splits, ``monopole``
for the radial profile workbench, ``algebra`` for harmonic utilities.

Every report carries its checks, one of them "finite". Exit codes: 0 when
all checks hold, 1 when one fails or a linear solve breaks down, 2 on bad
flags, flag values, config files or input files. Output is deterministic
byte for byte: all randomness flows from --seed, nothing timestamps itself.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, monopole, reduction, reports, sphere_algebra, tensor_kernels
from .gauge_fields import random_adjoint_scalar, random_gauge_config
from .reduction import Background, BlockMetric
from .reports import check
from .sphere_algebra import HarmonicField
from .tensor_kernels import minkowski_metric


def _require(ok, flag, rule, value):
    if not ok:
        raise ValueError("%s must be %s, got %r" % (flag, rule, value))


def _finite(text, flag):
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    _require(np.isfinite(value), flag, "a finite number", text)
    return value


def _parse_floats(text, flag):
    items = [_finite(t, flag) for t in text.split(",") if t.strip()]
    _require(items, flag, "a nonempty list", text)
    return items


def _parse_ints(text):
    return [int(t) for t in text.split(",") if t.strip()]


def _meta(args, **extra):
    meta = {"version": __version__, "command": args.command_path, "seed": args.seed}
    meta.update(extra)
    return meta


def _tol(args, default):
    return default if args.tol is None else args.tol


def _parse_coeffs(pairs):
    table = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        _require(sep, "--coeff", "NAME=VALUE", pair)
        table[name.strip()] = _finite(value, "--coeff")
    return table


# range rules of float flags beyond finiteness, by destination
_FLOAT_RULES = {
    "e": (lambda x: x != 0.0, "finite and nonzero"),
    "alpha": (lambda x: x != 0.0, "finite and nonzero"),
    "b": (lambda x: x > 0.0, "finite and positive"),
    "xi_max": (lambda x: x > 0.0, "finite and positive"),
    "tol": (lambda x: x >= 0.0, "finite and nonnegative"),
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _check_inputs(args):
    """Hold the flags that reach the numerics, whether given on the command
    line or by --config, to the range they need; a bad value is a usage
    error naming the flag. --tol and the list flags are parsed here, once."""
    given = vars(args)
    if given.get("tol") is not None:
        args.tol = _finite(args.tol, "--tol")
    for dest, value in given.items():
        if isinstance(value, float):
            ok, rule = _FLOAT_RULES.get(dest, (lambda x: True, "finite"))
            _require(np.isfinite(value) and ok(value), _flag(dest), rule, value)
    if "b_list" in given:
        text = args.b_list
        args.b_list = _parse_floats(text, "--b-list")
        _require(len(set(args.b_list)) == len(args.b_list) >= 2 and min(args.b_list) > 0,
                 "--b-list", "a list of at least two distinct positive radii", text)
    if "evb_list" in given:
        args.evb_list = _parse_floats(args.evb_list, "--evb-list")
    if "coeff" in given:
        args.coeff = _parse_coeffs(args.coeff)
    if "trials" in given:
        _require(args.trials >= 1, "--trials", "at least 1", args.trials)
    if "n" in given:
        _require(args.n >= 16, "--n", "at least 16", args.n)
    if "lmax" in given:
        _require(args.lmax >= 0, "--lmax", "at least 0", args.lmax)


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
    flag = _flag(dest)
    return any(tok == flag or tok.startswith(flag + "=") for tok in argv)


def _convert_like(current, text):
    if isinstance(current, int):
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
        current = getattr(args, key)
        try:
            setattr(args, key, _convert_like(current, text))
        except ValueError:
            raise ValueError("%s must be of type %s, got %r"
                             % (_flag(key), type(current).__name__, text)) from None


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
    return payload, [check("spread." + name, row["spread"], tol) for name, row in suite.items()]


def _drawn_reduction_inputs(args, dim, want_scalar):
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(dim, args.lmax, rng, amplitude=args.amplitude)
    scal = random_adjoint_scalar(dim, args.lmax, rng, amplitude=args.amplitude) if want_scalar else None
    metric = BlockMetric(minkowski_metric(dim), args.b)
    return cfg, scal, metric, Background(args.e)


def _reduce_result(args, rep, groups=("vanishing_group_rel",),
                   residuals=("classification_residual_rel", "covariant_identity_rel",
                              "forward_scan_residual_rel")):
    """The report and its checks: route residuals against --tol; the
    vanishing groups are exact zeros up to rounding, so their bound does not
    move with it."""
    tol = _tol(args, 1e-10)
    checks = [check(n, rep[n], tol) for n in residuals] + [check(n, rep[n], 1e-12) for n in groups]
    return {"meta": _meta(args, amplitude=args.amplitude), "report": rep}, checks


def cmd_reduce_scalar(args):
    cfg, scal, metric, bg = _drawn_reduction_inputs(args, args.D, True)
    return _reduce_result(args, reduction.reduce_scalar(cfg, scal, metric, bg))


def cmd_reduce_ym(args):
    cfg, _, metric, bg = _drawn_reduction_inputs(args, args.D, False)
    return _reduce_result(args, reduction.reduce_yang_mills(cfg, metric, bg))


def cmd_reduce_two_dim(args):
    cfg, _, metric, bg = _drawn_reduction_inputs(args, 2, False)
    return _reduce_result(args, reduction.two_dim_report(cfg, metric, bg),
                          groups=("group_0_rel", "group_1_rel"),
                          residuals=("pointwise_residual_rel",))


def cmd_reduce_scan_b(args):
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(args.D, args.lmax, rng, amplitude=args.amplitude)
    scal = random_adjoint_scalar(args.D, args.lmax, rng, amplitude=args.amplitude)
    scan = reduction.b_scan(cfg, scal, minkowski_metric(args.D), Background(args.e), args.b_list)
    columns = ["b", "q", "covariant_group", "residual_group_1",
               "residual_group_0", "ratio", "fit_exponent"]
    rows = [[row[c] for c in columns] for row in scan["rows"]]
    meta = _meta(args, D=args.D, e=args.e, lmax=args.lmax, amplitude=args.amplitude,
                 fit_exponent=scan["fit_exponent"])
    return (columns, rows, meta), []


def cmd_reduce_born_infeld(args):
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(args.D, args.lmax, rng, amplitude=args.amplitude)
    spacetime = minkowski_metric(args.D)
    bg = Background(args.e)
    reps = [
        reduction.born_infeld_report(cfg, BlockMetric(spacetime, b), bg, args.alpha, C=args.C)
        for b in args.b_list
    ]
    columns = ["b", "alpha", "lhs", "rhs", "ratio", "drift"]
    rows = [[rep[c] for c in columns] for rep in reps]
    meta = _meta(args, D=args.D, e=args.e, lmax=args.lmax, amplitude=args.amplitude, C=args.C)
    fall = float(np.min(-np.diff([rep["drift"] for rep in reps])))
    return (columns, rows, meta), [check("drift_min_fall", fall, 0.0, ok=fall > 0.0)]


def cmd_monopole_solve(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    r1, r2 = monopole.bogomolnyi_residuals(profile)
    breakdown = monopole.energy_breakdown(profile)
    meta = _meta(args, xi_max=args.xi_max, n=args.n,
                 max_residual_first=float(np.abs(r1).max()),
                 max_residual_second=float(np.abs(r2).max()),
                 completed_energy=breakdown.completed)
    tol = _tol(args, 1e-8)
    checks = [check(k, meta[k], tol) for k in ("max_residual_first", "max_residual_second")]
    checks.append(check("completed_energy_error", abs(breakdown.completed - 1.0), 1e-4))
    return (["xi", "K", "H"], zip(grid.xi, profile.K, profile.H), meta), checks


def cmd_monopole_energy(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    breakdown = monopole.energy_breakdown(profile)
    physical = monopole.physical_energy(
        profile, args.evb, v=args.v, beta=args.beta, e=args.e, b=args.b, coeffs=args.coeff,
    )
    payload = {
        "meta": _meta(args, xi_max=args.xi_max, n=args.n),
        "breakdown": vars(breakdown),
        "physical": physical,
    }
    return payload, [check("completed_energy_error", abs(breakdown.completed - 1.0),
                           _tol(args, 1e-4))]


def cmd_monopole_perturb(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    pert = monopole.solve_perturbation(profile, coeffs=args.coeff)
    rep = monopole.perturbation_report(profile, pert=pert)
    meta = _meta(args, **rep)
    for name in sorted(pert.coeffs):
        meta["coeff_%s" % name] = pert.coeffs[name]
    rows = zip(grid.xi, profile.K, profile.H, pert.K1, pert.H1)
    return (["xi", "K", "H", "K1", "H1"], rows, meta), []


def cmd_monopole_scan_evb(args):
    rows_data = monopole.energy_scan(
        args.evb_list, xi_max=args.xi_max, n=args.n, v=args.v, beta=args.beta,
        e=args.e, b=args.b, coeffs=args.coeff,
    )
    columns = ["evb", "epsilon", "E0_integral", "correction_integral", "dE_over_E0", "cutoff"]
    rows = [[row[c] for c in columns] for row in rows_data]
    meta = _meta(args, xi_max=args.xi_max, n=args.n, v=args.v, beta=args.beta,
                 e=args.e, b=args.b, prefactor=rows_data[0]["prefactor"],
                 quantization_ok=rows_data[0]["quantization_ok"])
    return (columns, rows, meta), []


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
    return (columns, rows, meta), []


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
    return payload, [check("closure_residual", gen.closure_residual, _tol(args, 1e-10))]


def cmd_algebra_bracket(args):
    with open(args.f) as fh:
        f = HarmonicField.from_dict(json.load(fh))
    with open(args.g) as fh:
        g = HarmonicField.from_dict(json.load(fh))
    result = sphere_algebra.bracket(f, g)
    return {"meta": _meta(args), "result": result.to_dict()}, []


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
            sp.add_argument("--coeff", action="append", default=[],
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
    """Run one subcommand. Its handler returns (document, checks); this is
    the one place that adds the finite check, writes the output and turns
    the checks into the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.config:
            _apply_config(args, argv)
        _check_inputs(args)
        document, checks = args.handler(args)
        document, bad = reports.scrub(document)
        if bad:
            print("error: %d non-finite value(s) written as null: %s%s" % (
                len(bad), ", ".join(bad[:10]), ", ..." if len(bad) > 10 else ""), file=sys.stderr)
        checks.append(check("finite", len(bad), 0))
        text = reports.render(document, checks)
        if args.out:
            reports.atomic_write_text(args.out, text)
        else:
            sys.stdout.write(text)
    except np.linalg.LinAlgError as exc:
        print("error: linear solve failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if all(c["ok"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
