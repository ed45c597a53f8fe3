"""Command line front end.

Subcommands mirror the package layout: ``identities`` for the contraction
ratio suite, ``reduce`` for the sphere-to-spacetime splits, ``monopole``
for the radial profile workbench, ``algebra`` for harmonic utilities.

Every report carries its checks, one of them "finite". Exit codes: 0 when
all checks hold, 1 when one fails, a linear solve breaks down or an
arithmetic error (a zero divisor, an overflow) ends the run, 2 on bad flags,
flag values, config files or input files. Output is deterministic byte for
byte: the draws of identities and reduce flow from --seed, nothing
timestamps itself, and the bytes do not depend on the BLAS thread count.
"""

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__, monopole, reduction, reports, sphere_algebra, tensor_kernels
from .gauge_fields import random_adjoint_scalar, random_gauge_config
from .reduction import Background, BlockMetric
from .reports import check
from .sphere_algebra import HarmonicField
from .tensor_kernels import minkowski_metric


def _csv(columns, rows, meta):
    """The CSV document of a list of dicts: one table row per dict, one column per name."""
    return columns, np.array([[row[c] for c in columns] for row in rows], dtype=float), meta


def _meta(args, **extra):
    meta = {"version": __version__, "command": args.command_path}
    if "seed" in args:
        meta["seed"] = args.seed
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# flag rules: each flag's argparse type converts its text and holds the value
# to the range the numerics need, so a bad value, from the command line or
# from --config, exits 2 with "argument --flag: must be ..."


def _rule(rule, convert, ok=lambda value: True):
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("must be %s, got %r" % (rule, text))
    return parse


def _at_least(low):
    return _rule("an integer >= %d" % low, int, lambda n: n >= low)


def _floats(text):
    return [float(t) for t in text.split(",") if t.strip()]


def _coeff(text):
    name, sep, value = text.partition("=")
    if not sep:
        raise ValueError(text)
    return name.strip(), float(value)


_FINITE = _rule("finite", float, math.isfinite)
_NONZERO = _rule("finite and nonzero", float, lambda x: math.isfinite(x) and x != 0.0)
_POSITIVE = _rule("finite and positive", float, lambda x: 0.0 < x < math.inf)
_COEFF = _rule("NAME=VALUE with NAME one of %s and a finite VALUE"
               % ", ".join(monopole.SECOND_LINE_COEFFS), _coeff,
               lambda pair: pair[0] in monopole.SECOND_LINE_COEFFS and math.isfinite(pair[1]))
_EVB_LIST = _rule("a nonempty comma list of finite numbers", _floats,
                  lambda xs: xs and all(map(math.isfinite, xs)))
_B_LIST = _rule("a comma list of at least two distinct finite positive radii", _floats,
                lambda xs: len(set(xs)) == len(xs) >= 2 and all(0.0 < x < math.inf for x in xs))
_DIMS = _rule("a comma list of dimensions >= 3 including 3 and 4",
              lambda text: tensor_kernels.suite_dims(t for t in text.split(",") if t.strip()))


@contextlib.contextmanager
def _path_flag(flag, path):
    """Report a failure to read or write the file a path flag names as
    "argument FLAG: PATH: reason", a ValueError, so the run exits 2. An
    OSError gives its reason alone, without the errno and the file name it
    failed on, which for --out is an internal temp file's."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError("argument %s: %s: %s" % (flag, path, reason)) from None


# ---------------------------------------------------------------------------
# config files: plain "key = value" lines, re-parsed as flags beneath the
# explicit ones


def _config_tokens(args, rest):
    """The --config lines as one --flag=value token per value (per pair for
    coeff, whose lines drop out when --coeff is given in rest)."""
    known = set(vars(args)) - {"handler", "command_path", "command", "subcommand", "config"}
    tokens = []
    with _path_flag("--config", args.config), open(args.config, encoding="utf-8-sig") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep:
                raise ValueError("config line without '=': %r" % raw.strip())
            flag = "--" + key.replace("_", "-")
            if key not in known:
                raise ValueError("unknown config key: %s (%s takes no %s)"
                                 % (key, args.command_path, flag))
            values = [value.strip()]
            if key == "coeff":
                if any(t == flag or t.startswith(flag + "=") for t in rest):
                    continue
                values = [v.strip() for v in value.split(",") if v.strip()] or [""]
            tokens += [flag + "=" + v for v in values]
    return tokens


# ---------------------------------------------------------------------------
# handlers


def cmd_identities(args):
    rng = np.random.default_rng(args.seed)
    suite = tensor_kernels.identity_suite(
        dims=args.dims, trials=args.trials, rng=rng, signature=args.signature
    )
    payload = {
        "meta": _meta(args, dims=list(args.dims), trials=args.trials, signature=args.signature),
        "ratios": suite,
    }
    sign = -1.0 if args.signature == "lorentzian" else 1.0  # det g's, carried by the epsilon routes
    constants = {"delta3_vs_trace3": 1.0, "delta4_vs_trace4": 8.0,
                 "eps3_vs_delta3": sign, "eps4_vs_trace4": 8.0 * sign}
    return payload, ([check("spread." + name, row["spread"], 1e-10) for name, row in suite.items()]
                     + [check("mean." + name, abs(suite[name]["mean"] - constant), 1e-10)
                        for name, constant in constants.items()])


def _drawn_reduction_inputs(args, dim, want_scalar):
    """The seeded jets, the Minkowski spacetime metric and the background."""
    rng = np.random.default_rng(args.seed)
    cfg = random_gauge_config(dim, args.lmax, rng, amplitude=args.amplitude)
    scal = random_adjoint_scalar(dim, args.lmax, rng, amplitude=args.amplitude) if want_scalar else None
    return cfg, scal, minkowski_metric(dim), Background(args.e)


_ROUTES = ("classification_residual_rel", "covariant_identity_rel", "forward_scan_residual_rel")


def _route_checks(rep, groups=("vanishing_group_rel",), residuals=_ROUTES):
    """Route residuals against 1e-10; the vanishing groups are exact zeros
    up to rounding, against 1e-12."""
    return [check(n, rep[n], 1e-10) for n in residuals] + [check(n, rep[n], 1e-12) for n in groups]


def _reduce_result(args, rep, **names):
    """The report and its route checks."""
    document = {"meta": _meta(args, amplitude=args.amplitude), "report": rep}
    return document, _route_checks(rep, **names)


def cmd_reduce_scalar(args):
    cfg, scal, g, bg = _drawn_reduction_inputs(args, args.D, True)
    return _reduce_result(args, reduction.reduce_scalar(cfg, scal, BlockMetric(g, args.b), bg))


def cmd_reduce_ym(args):
    cfg, _, g, bg = _drawn_reduction_inputs(args, args.D, False)
    return _reduce_result(args, reduction.reduce_yang_mills(cfg, BlockMetric(g, args.b), bg))


def cmd_reduce_two_dim(args):
    """The two-dimensional checks, then those of the nested Yang-Mills split."""
    cfg, _, g, bg = _drawn_reduction_inputs(args, 2, False)
    rep = reduction.two_dim_report(cfg, BlockMetric(g, args.b), bg)
    document, checks = _reduce_result(args, rep, groups=("group_0_rel", "group_1_rel"),
                                      residuals=("pointwise_residual_rel",))
    nested = _route_checks(rep["report"])
    return document, checks + [dict(c, name="report." + c["name"]) for c in nested]


def cmd_reduce_scan_b(args):
    cfg, scal, g, bg = _drawn_reduction_inputs(args, args.D, True)
    scan = reduction.b_scan(cfg, scal, g, bg, args.b_list)
    columns = ["b", "q", "covariant_group", "residual_group_1",
               "residual_group_0", "ratio", "fit_exponent"]
    meta = _meta(args, D=args.D, e=args.e, lmax=args.lmax, amplitude=args.amplitude,
                 fit_exponent=scan["fit_exponent"])
    # each route at its worst radius
    worst = {n: max(row[n] for row in scan["rows"]) for n in _ROUTES + ("vanishing_group_rel",)}
    return _csv(columns, scan["rows"], meta), _route_checks(worst)


def cmd_reduce_born_infeld(args):
    cfg, _, g, bg = _drawn_reduction_inputs(args, args.D, False)
    try:
        reps = reduction.born_infeld_report(cfg, g, bg, args.alpha, args.C, args.b_list)
    except ValueError as exc:  # a determinant outside the square root's domain, at the radius named
        raise ValueError("%s of --b-list, with this --alpha and --amplitude" % exc) from None
    columns = ["b", "alpha", "lhs", "rhs", "ratio", "drift"]
    meta = _meta(args, D=args.D, e=args.e, lmax=args.lmax, amplitude=args.amplitude, C=args.C)
    # the drift falls with the radius: take it largest radius first, whatever the --b-list order
    drifts = [rep["drift"] for rep in sorted(reps, key=lambda rep: -rep["b"])]
    fall = float(np.min(-np.diff(drifts)))
    return _csv(columns, reps, meta), [check("drift_min_fall", fall, 0.0, ok=fall > 0.0)]


def _coeff_table(args):
    """The correction coefficients of a monopole run, the published table
    under the --coeff pairs, and their coeff_<name> meta entries."""
    table = dict(monopole.SECOND_LINE_COEFFS, **dict(args.coeff))
    return table, {"coeff_" + name: value for name, value in table.items()}


def _convergence(profile, breakdown):
    """convergence_check's keys for the run's grid, and the checks they
    support: closed_form_remainder holds cutoff_remainder to its closed form
    within |discretization_estimate|. On [0, xi_max] the closed-form
    profile's raw energy is H (1 - K**2)/xi at xi_max, so the remainder is
    that plus the tail 1/xi_max, minus 1. The other grids can divide by zero
    where --n's does not, at a cutoff far out of range (--xi-max 1e-160 with
    --n below 64), so they and the check run with numpy's errors ignored:
    such a key is written as null and the report is kept."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        keys = monopole.convergence_check(breakdown)
        xi_max = profile.grid.xi_max
        closed = profile.H[-1] * (1.0 - profile.K[-1] ** 2) / xi_max + 1.0 / xi_max - 1.0
        return keys, [check("closed_form_remainder", abs(keys["cutoff_remainder"] - closed),
                            abs(keys["discretization_estimate"]))]


def cmd_monopole_solve(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    r1, r2 = monopole.bogomolnyi_residuals(profile)
    breakdown = monopole.energy_breakdown(profile)
    keys, closure = _convergence(profile, breakdown)
    meta = _meta(args, xi_max=args.xi_max, n=args.n,
                 max_residual_first=float(np.abs(r1).max()),
                 max_residual_second=float(np.abs(r2).max()),
                 completed_energy=breakdown.completed, **keys)
    checks = [check(k, meta[k], 1e-8) for k in ("max_residual_first", "max_residual_second")]
    checks += [check("completed_energy_error", abs(breakdown.completed - 1.0), 1e-4)] + closure
    return (["xi", "K", "H"], np.column_stack([grid.xi, profile.K, profile.H]), meta), checks


def cmd_monopole_energy(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    breakdown = monopole.energy_breakdown(profile)
    keys, closure = _convergence(profile, breakdown)
    coeffs, recorded = _coeff_table(args)
    physical = monopole.physical_energy(
        breakdown.completed, args.xi_max, monopole.second_line_integral(profile, coeffs), args.evb,
        v=args.v, beta=args.beta, e=args.e, b=args.b,
    )
    payload = {
        "meta": _meta(args, xi_max=args.xi_max, n=args.n, **recorded),
        "breakdown": dict(vars(breakdown), **keys),
        "physical": physical,
    }
    return payload, [check("completed_energy_error", abs(breakdown.completed - 1.0), 1e-4)] + closure


def cmd_monopole_perturb(args):
    grid = monopole.RadialGrid(args.xi_max, args.n)
    profile = monopole.bps_profile(grid)
    coeffs, recorded = _coeff_table(args)
    # an overflowing response (a huge --coeff) is reported with null cells, not raised
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pert = monopole.solve_perturbation(profile, coeffs=coeffs)
        rep = monopole.perturbation_report(profile, pert=pert)
    meta = _meta(args, **rep, **recorded)
    table = np.column_stack([grid.xi, profile.K, profile.H, pert.K1, pert.H1])
    # a backward stable solve and a linear energy response
    r2 = rep["linearity_r_squared"]
    return (["xi", "K", "H", "K1", "H1"], table, meta), [
        check("backward_error", rep["backward_error"], 1e-8),
        check("linearity_r_squared", r2, 0.9999, ok=r2 >= 0.9999)]


def cmd_monopole_scan_evb(args):
    coeffs, recorded = _coeff_table(args)
    rows_data = monopole.energy_scan(
        args.evb_list, xi_max=args.xi_max, n=args.n, v=args.v, beta=args.beta,
        e=args.e, b=args.b, coeffs=coeffs,
    )
    columns = ["evb", "epsilon", "E0_integral", "correction_integral", "dE_over_E0", "cutoff"]
    meta = _meta(args, xi_max=args.xi_max, n=args.n, v=args.v, beta=args.beta,
                 e=args.e, b=args.b, prefactor=rows_data[0]["prefactor"],
                 quantization_ok=rows_data[0]["quantization_ok"], **recorded)
    error = abs(rows_data[0]["E0_integral"] - 1.0)
    return _csv(columns, rows_data, meta), [check("completed_energy_error", error, 1e-4)]


def cmd_algebra_structure_constants(args):
    S = sphere_algebra.structure_constants(args.lmax)  # f_abc = i S[a, b, l3] at m3 = m1 + m2
    labels = sphere_algebra.lm_pairs(args.lmax)
    # bounds relative to the largest entry; allowed is the 3j selection rule
    la, lb, lc = labels[:, 0, None, None], labels[:, 0, None], np.arange(args.lmax + 1)
    allowed = ((la + lb + lc) % 2 == 1) & (abs(la - lb) < lc) & (lc < la + lb)
    top = np.abs(S).max()
    # the generator row: {Y10, Ylm} = i m sqrt(3/4pi) Ylm, so S[row(1, 0), b, l_b] = m_b sqrt(3/4pi)
    ls, ms = labels.T
    generator = S[2, np.arange(len(ls)), ls] - ms * math.sqrt(3.0 / (4.0 * math.pi))
    checks = [check("antisymmetry", np.abs(S + S.transpose(1, 0, 2)).max() / top, 1e-12),
              check("selection_rule", np.abs(S[~allowed]).max(initial=0.0) / top, 1e-12),
              check("generator_row", np.abs(generator).max() / top, 1e-12)]
    del allowed  # the checks and their S-sized temporaries end before the row table
    a, b, l3 = index = np.nonzero(~(np.abs(S) < 1e-12))  # C order: c grows with l3 at fixed m3
    table = np.zeros((len(l3), 8))  # filled column by column: no stacked copy of its inputs
    table[:, 0:2], table[:, 2:4], table[:, 4] = labels[a], labels[b], l3
    table[:, 5] = table[:, 1] + table[:, 3]  # m3 = m1 + m2; the re column stays 0
    table[:, 7] = S[index]
    meta = _meta(args, lmax=args.lmax, threshold=1e-12, entries=len(table))
    return (["l1", "m1", "l2", "m2", "l3", "m3", "re", "im"], table, meta), checks


def cmd_algebra_su2(args):
    triple, measured, residual, printed_residual = sphere_algebra.su2_generators()
    c = math.sqrt(3.0 / (4.0 * math.pi))  # {Y10, Y1m} = i m c Y1m
    payload = {
        "meta": _meta(args),
        # the printed basis does not close; the real combinations stand in for it
        "basis": "real_combination",
        "bracket_constant": measured,
        "closure_residual": residual,
        "printed_residual": printed_residual,
        "substituted": True,
        "generators": [t.to_dict() for t in triple],
    }
    return payload, [check("closure_residual", residual, 1e-10),
                     check("bracket_constant_rel", abs(measured + c) / c, 1e-12)]


def cmd_algebra_bracket(args):
    paths = (("--f", args.f), ("--g", args.g))
    missing = [flag for flag, path in paths if path is None]
    if missing:  # checked after the --config merge, so either may give them
        raise ValueError("%s needs %s, as a flag or a config line"
                         % (args.command_path, " and ".join(missing)))
    fields = []
    for flag, path in paths:
        # a missing file, bad JSON or a layout that is not a field
        with _path_flag(flag, path), open(path, encoding="utf-8-sig") as fh:
            fields.append(HarmonicField.from_dict(json.load(fh)))
    f, g = fields
    fg, gf = sphere_algebra.brackets([(f, g), (g, f)])
    # the residual reads exactly 0 for the computed bracket
    residual = (fg + gf).norm() / (fg.norm() or 1.0)  # absolute for a zero bracket
    return {"meta": _meta(args), "result": fg.to_dict()}, [check("antisymmetry", residual, 1e-12)]


# ---------------------------------------------------------------------------
# parser


def build_parser():
    """The flag table: every flag that takes a value converts and checks it
    with its type, except the paths (--config, --out, --f, --g) and
    --signature, whose choices argparse checks."""
    seeded = argparse.ArgumentParser(add_help=False)  # the subcommands that draw
    seeded.add_argument("--seed", type=_at_least(0), default=0,
                        help="seed of the drawn metrics and tensors (identities) or jets (reduce)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="file of key = value lines merged under explicit flags")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    parser = argparse.ArgumentParser(prog="uinf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    p = top.add_parser("identities", parents=[seeded, common],
                       help="contraction identity ratio suite over random draws")
    p.add_argument("--dims", type=_DIMS, default="3,4,6", help="comma list of dimensions")
    p.add_argument("--trials", type=_at_least(1), default=500)
    p.add_argument("--signature", choices=["euclidean", "lorentzian"], default="euclidean")
    p.set_defaults(handler=cmd_identities, command_path="identities")

    reduce_p = top.add_parser("reduce", help="sphere-to-spacetime splits")
    reduce_sub = reduce_p.add_subparsers(dest="subcommand", required=True)

    def add_reduce(name, handler, min_D=1, b_flag=True, lmax=3, amplitude=0.4):
        sp = reduce_sub.add_parser(name, parents=[seeded, common])
        sp.add_argument("--e", type=_NONZERO, default=2.0, help="background coupling")
        sp.add_argument("--lmax", type=_at_least(0), default=lmax)
        sp.add_argument("--amplitude", type=_FINITE, default=amplitude)
        if min_D:
            sp.add_argument("--D", type=_at_least(min_D), default=4, help="spacetime dimension")
        if b_flag:
            sp.add_argument("--b", type=_POSITIVE, default=1.0, help="sphere radius")
        else:
            sp.add_argument("--b-list", type=_B_LIST, default="0.4,0.2,0.1,0.05")
        sp.set_defaults(handler=handler, command_path="reduce %s" % name)
        return sp

    add_reduce("scalar", cmd_reduce_scalar)
    add_reduce("ym", cmd_reduce_ym)
    add_reduce("two-dim", cmd_reduce_two_dim, min_D=None)
    add_reduce("scan-b", cmd_reduce_scan_b, b_flag=False)
    sp = add_reduce("born-infeld", cmd_reduce_born_infeld, min_D=2, b_flag=False,
                    lmax=2, amplitude=0.25)
    sp.add_argument("--alpha", type=_NONZERO, default=0.5)
    sp.add_argument("--C", type=_NONZERO, default=1.0)

    mono_p = top.add_parser("monopole", help="radial profile workbench")
    mono_sub = mono_p.add_subparsers(dest="subcommand", required=True)

    def add_mono(name, handler, coeff=False, physical=False):
        sp = mono_sub.add_parser(name, parents=[common])
        sp.add_argument("--xi-max", type=_POSITIVE, default=25.0)
        sp.add_argument("--n", type=_at_least(16), default=4000)
        if coeff:
            sp.add_argument("--coeff", type=_COEFF, action="append", default=[],
                            metavar="NAME=VALUE",
                            help="override a correction coefficient (repeatable)")
        if physical:
            sp.add_argument("--v", type=_FINITE, default=1.0)
            sp.add_argument("--beta", type=_FINITE, default=1.0)
            sp.add_argument("--e", type=_NONZERO, default=2.0)
            sp.add_argument("--b", type=_POSITIVE, default=1.0)
        sp.set_defaults(handler=handler, command_path="monopole %s" % name)
        return sp

    add_mono("solve", cmd_monopole_solve)
    sp = add_mono("energy", cmd_monopole_energy, coeff=True, physical=True)
    sp.add_argument("--evb", type=_FINITE, default=0.1)
    add_mono("perturb", cmd_monopole_perturb, coeff=True)
    sp = add_mono("scan-evb", cmd_monopole_scan_evb, coeff=True, physical=True)
    sp.add_argument("--evb-list", type=_EVB_LIST, default="0.1,0.2,0.3")

    alg_p = top.add_parser("algebra", help="harmonic field utilities")
    alg_sub = alg_p.add_subparsers(dest="subcommand", required=True)

    sp = alg_sub.add_parser("structure-constants", parents=[common])
    sp.add_argument("--lmax", type=_at_least(1), default=3)
    sp.set_defaults(handler=cmd_algebra_structure_constants,
                    command_path="algebra structure-constants")

    sp = alg_sub.add_parser("su2", parents=[common])
    sp.set_defaults(handler=cmd_algebra_su2, command_path="algebra su2")

    sp = alg_sub.add_parser("bracket", parents=[common])
    sp.add_argument("--f", help="JSON file with the first field")
    sp.add_argument("--g", help="JSON file with the second field")
    sp.set_defaults(handler=cmd_algebra_bracket, command_path="algebra bracket")

    return parser


def _parse(argv):
    """Parse argv; with --config, parse again with the config lines as flags
    between the command path and the rest of argv, so the last value wins and
    config values meet the same rules."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        path = args.command_path.split()
        rest = argv[len(path):]
        args = parser.parse_args(path + _config_tokens(args, rest) + rest)
    return args


def main(argv=None):
    """Run one subcommand: its handler returns (document, checks), and one
    reports.render call gives the text, the finite check and the key paths
    of the non-finite numbers, named here on stderr. The checks set the exit
    code. numpy raises on overflow, zero division and invalid operations in
    the handler, so an arithmetic failure ends the run where it starts;
    underflow stays silent (the profile tail underflows)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            document, checks = args.handler(args)
        text, bad = reports.render(document, checks)
        if bad:
            print("error: %d non-finite value(s) written as null: %s%s" % (
                len(bad), ", ".join(bad[:10]), ", ..." if len(bad) > 10 else ""), file=sys.stderr)
        if args.out:
            with _path_flag("--out", args.out):
                reports.atomic_write_text(args.out, text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:  # argparse: --help, --version or a usage error
        return 0 if exc.code in (0, None) else 2
    except np.linalg.LinAlgError as exc:
        print("error: linear solve failed: %s" % exc, file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a zero divisor or an overflow, in numpy or Python floats
        msg = "overflow: %s" % exc.args[-1] if isinstance(exc, OverflowError) else exc
        print("error: arithmetic failed: %s" % msg, file=sys.stderr)  # no errno tuple
        return 1
    except MemoryError as exc:  # an array larger than the host can hold
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if all(c["ok"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
