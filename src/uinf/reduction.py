"""Reduction of abelian field data on (spacetime) x (two-sphere of radius b).

The full-space field strength built from a potential jet and a fixed
monopole-type flux background is contracted into scalar and quartic
densities, then split into groups by the power of the inverse sphere-block
metric each monomial carries. Three independent routes keep the split
honest:

  * the classified groups summed against the full-index contraction
    evaluated pointwise (the reference route),
  * the group carrying two inverse-block powers against bracket-extended
    spacetime quantities built in coefficient space (the covariant route),
  * the whole family against a parametric rescaling of the inverse sphere
    block (the forward scan).

Conventions: spacetime indices run over 0..dim-1 with a constant metric;
sphere indices are (theta, phi) appended after them. The background flux is
F_(theta phi) = sin(theta) / q on the unit sphere, and mixed components are
F_(theta mu) = +d_theta A_mu. All node work uses coordinate derivatives
d_theta = -sin(theta) d/dx with x = cos(theta).
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .gauge_fields import field_strength, scalar_kinetic_integral, yang_mills_integral
# bracket stays bound here: bench/test_bench_helpers.py checks every binding site
from .sphere_algebra import (bracket, gradients, grid_for_band_limit,  # noqa: F401
                             integral_of_product, synthesize)
from .tensor_kernels import born_infeld_density, delta3, eps, trace4

__all__ = [
    "BlockMetric",
    "Background",
    "reduce_scalar",
    "reduce_yang_mills",
    "b_scan",
    "two_dim_report",
    "born_infeld_report",
]


@dataclass(frozen=True)
class BlockMetric:
    """Constant spacetime metric next to a round sphere block of radius b."""

    spacetime: np.ndarray
    b: float

    def __post_init__(self):
        g = np.asarray(self.spacetime, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("spacetime metric must be square")
        if not np.allclose(g, g.T):
            raise ValueError("spacetime metric must be symmetric")
        if not self.b > 0:
            raise ValueError("sphere radius must be positive")
        object.__setattr__(self, "spacetime", g)

    @property
    def dim(self):
        return self.spacetime.shape[0]


@dataclass(frozen=True)
class Background:
    """Sphere flux normalization: F_(theta phi) = sin(theta) / q."""

    q: float

    def __post_init__(self):
        if self.q == 0.0:
            raise ValueError("flux parameter q must be nonzero")

    @property
    def quantization_ok(self):
        """Whether 2/q sits on an integer, the closure condition for the
        flux; reported, never enforced."""
        ratio = 2.0 / self.q
        return abs(ratio - round(ratio)) < 1e-12


def _node_data(cfg, scal, grid):
    """Every needed node array, from one stacked gradient and one stacked synthesis."""
    D = cfg.dim
    shape = (grid.n_theta, grid.n_phi)
    s = grid.sin_theta[:, None]
    phi, dphi = ([], []) if scal is None else ([scal.phi], list(scal.dphi))
    dx, dp = gradients(list(cfg.a) + phi, grid)
    ex = np.stack([-s * dx, dp])  # d_theta and d_phi of each A_mu, then of phi
    vals = synthesize([f for row in cfg.da for f in row] + dphi, grid)
    dav = vals[:D * D].reshape((D, D) + shape)
    out = {"s": s, "dAex": ex[:, :D], "flow": dav - dav.swapaxes(0, 1), "shape": shape}
    if scal is not None:
        out.update(dphst=vals[D * D:], dphiex=ex[:, D])
    return out


def _node_bracket(u, v, s):
    """(u_phi v_theta - u_theta v_phi) / sin(theta) of (theta, phi)-first stacks."""
    return (u[1] * v[0] - u[0] * v[1]) / s


def _ghat_inv(grid):
    """Inverse unit-sphere metric diagonal, shape (2, n_theta, 1)."""
    s2 = (grid.sin_theta**2)[:, None]
    return np.stack([np.ones_like(s2), 1.0 / s2])


def _block_invariants(nd, grid, ginv, b):
    """Inverse sphere metric gh, raised spacetime field strength fup, its
    square S, the mixed-block products P and their spacetime trace X."""
    gh = _ghat_inv(grid)
    flow, dAex = nd["flow"], nd["dAex"]
    fup = np.einsum("ac,bd,cdij->abij", ginv, ginv, flow)
    S = np.einsum("abij,abij->ij", flow, fup)
    P = np.einsum("mij,maij,mbij->abij", gh, dAex, dAex)
    X = np.einsum("ab,abij->ij", ginv, P) / b**2
    return gh, fup, S, P, X


def _scalar_groups(nd, grid, ginv, b, q):
    """Node densities of the terms of the four scalar-sector groups, one
    list per group, ordered by the inverse sphere-block power."""
    gh, fup, S, P, X = _block_invariants(nd, grid, ginv, b)
    s = nd["s"]
    dAex, flow = nd["dAex"], nd["flow"]
    dphst, dphiex = nd["dphst"], nd["dphiex"]
    vup = np.einsum("ab,bij->aij", ginv, dphst)
    Bc = 2.0 / (q**2 * b**4)
    p_st = np.einsum("aij,aij->ij", dphst, vup)
    p_ex = np.einsum("mij,mij,mij->ij", gh, dphiex, dphiex) / b**2
    W = np.einsum("mnij,mlij,lij,nij->ij", fup, flow, vup, dphst)
    E = np.einsum("mij,maij,mij->aij", gh, dAex, dphiex)
    Z1 = -np.einsum("mnij,mij,nij->ij", fup, E, dphst) / b**2
    Z2 = np.einsum("abij,aij,bij->ij", P, vup, vup) / b**2
    Q1 = np.einsum("ab,aij,bij->ij", ginv, E, E) / b**4
    cr = _node_bracket(dphiex, dAex, s)
    Q2 = np.einsum("ab,aij,bij->ij", ginv, cr, dphst) / (q * b**4)
    # the top group's cycle piece, kept on its own arithmetic path
    fhat = np.zeros((2, 2) + nd["shape"])
    fhat[0, 1] = s / q
    fhat[1, 0] = -s / q
    fhat_upup = np.einsum("mij,nij,mnij->mnij", gh, gh, fhat) / b**4
    vex_up = gh * dphiex / b**2
    t2bg = np.einsum("mpij,mnij,nij,pij->ij", fhat_upup, fhat, vex_up, dphiex)
    return [[S * p_st, -2.0 * W],
            [2.0 * X * p_st, S * p_ex, -4.0 * Z1, -2.0 * Z2],
            [Bc * p_st, 2.0 * X * p_ex, -2.0 * Q1, -4.0 * Q2],
            [Bc * p_ex, -2.0 * t2bg]]


def _ym_groups(nd, grid, ginv, b, q):
    """Node densities of the terms of the five quartic-sector groups."""
    gh, fup, S, P, X = _block_invariants(nd, grid, ginv, b)
    s = nd["s"]
    dAex, flow = nd["dAex"], nd["flow"]
    Bc = 2.0 / (q**2 * b**4)
    M = np.einsum("ab,bcij->acij", ginv, flow)
    M2 = np.einsum("abij,bcij->acij", M, M)
    t4s = np.einsum("abij,baij->ij", M2, M2)
    NN = np.einsum("ab,bcij,cd,deij,ef->afij", ginv, flow, ginv, flow, ginv)
    C1 = -np.einsum("abij,abij->ij", P, NN) / b**2
    br = _node_bracket(dAex[:, :, None], dAex[:, None], s)
    C_adj = -np.einsum("abij,abij->ij", br, fup) / (q * b**4)
    Pup = np.einsum("ac,bd,cdij->abij", ginv, ginv, P)
    C_alt = np.einsum("abij,abij->ij", P, Pup) / b**4
    ehat = np.zeros((2, 2) + nd["shape"])
    ehat[0, 1] = s / (q * b**2)
    ehat[1, 0] = -1.0 / (q * b**2 * s)
    V = gh[:, None] * dAex / b**2
    Wm = -np.einsum("mn,pnij->mpij", ginv, dAex)
    C3 = np.einsum("mnij,naij,apij,pmij->ij", ehat, V, Wm, ehat)
    e2 = np.einsum("mnij,npij->mpij", ehat, ehat)
    t4e = np.einsum("mnij,nmij->ij", e2, e2)
    return [[S * S, -2.0 * t4s],
            [4.0 * S * X, -8.0 * C1],
            [4.0 * X * X, 2.0 * S * Bc, -8.0 * C_adj, -4.0 * C_alt],
            [4.0 * X * Bc, -8.0 * C3],
            [Bc * Bc, -2.0 * t4e]]


def _full_field_matrix(nd, D, q):
    """Lowered full-space field strength at every node, shape (..., N, N)."""
    F = np.zeros(nd["shape"] + (D + 2, D + 2))
    F[..., :D, :D] = nd["flow"].transpose(2, 3, 0, 1)
    F[..., :D, D:] = -nd["dAex"].transpose(2, 3, 1, 0)
    F[..., D:, :D] = nd["dAex"].transpose(2, 3, 0, 1)
    F[..., D, D + 1] = nd["s"] / q
    F[..., D + 1, D] = -nd["s"] / q
    return F


def _full_inverse_metric(grid, ginv, b, t=1.0):
    """Inverse full-space metric with its sphere block scaled by t, shape
    (n_theta, 1, N, N); t = 0 is the degenerate limit."""
    D = ginv.shape[0]
    gh = _ghat_inv(grid)
    G = np.zeros(gh.shape[1:] + (D + 2, D + 2))
    G[..., :D, :D] = ginv
    for m in range(2):
        G[..., D + m, D + m] = t * gh[m] / b**2
    return G


def _integrate(grid, density):
    return float(np.sum(grid.w2d * density))


def _grid_for(cfg, scal):
    L = cfg.l_max if scal is None else max(cfg.l_max, scal.l_max)
    return grid_for_band_limit(2 * L), L


def _relative(residual, magnitude):
    """residual / magnitude; a zero residual reads 0, also where every term vanishes."""
    return np.divide(residual, magnitude, out=np.zeros(np.shape(residual)), where=residual != 0)


def _reduce_common(sector, cfg, scal, metric, background):
    """(report, grid, node data, full field matrix) of one sector's split."""
    if metric.dim != cfg.dim:
        raise ValueError("metric dimension does not match the jet")
    grid, L = _grid_for(cfg, scal)
    nd = _node_data(cfg, scal, grid)
    ginv = np.linalg.inv(metric.spacetime)
    b, q = metric.b, background.q
    F = _full_field_matrix(nd, cfg.dim, q)
    # the reference route at sphere-block scales t = 0..4, built after the groups;
    # t = 1 is the metric itself
    scaled = (_full_inverse_metric(grid, ginv, b, float(t)) for t in range(5))
    charged = replace(cfg, coupling=q)  # the covariant route's coupling, fixed by the flux
    if sector == "scalar":
        groups = _scalar_groups(nd, grid, ginv, b, q)
        v = np.concatenate([nd["dphst"], nd["dphiex"]]).transpose(1, 2, 0)  # full-space gradient
        refs = [_integrate(grid, 0.5 * delta3(F, v, G)) for G in scaled]
        covariant = scalar_kinetic_integral(charged, scal, metric.spacetime)
        const = 2.0 / q**2
    else:
        groups = _ym_groups(nd, grid, ginv, b, q)
        refs = [_integrate(grid, trace4(F, G)) for G in scaled]
        covariant = yang_mills_integral(charged, metric.spacetime)
        const = 4.0 / q**2
    gk = [_integrate(grid, sum(terms[1:], terms[0])) for terms in groups]  # the written order
    mag = [_integrate(grid, sum(np.abs(term) for term in terms)) for terms in groups]
    total, ref = float(sum(gk)), refs[1]
    t = np.arange(5.0)  # the scale of each reference; at t = 1 the sums are total and sum(mag)
    predicted, scan_mag = (sum(c * t**k for k, c in enumerate(cs)) for cs in (gk, mag))
    scan = _relative(np.abs(np.array(refs) - predicted), scan_mag)

    cov_lhs, cov_rhs = gk[2] * b**4, const * covariant
    cov_abs = abs(cov_lhs - cov_rhs)

    report = {
        "sector": sector,
        "dim": cfg.dim,
        "b": b,
        "e": q,
        "q_scaled": q * b * b,
        "quantization_ok": background.quantization_ok,
        "l_max": L,
        "grid_band_limit": grid.band_limit,
        "n_theta": grid.n_theta,
        "n_phi": grid.n_phi,
        "normalization": "half_delta3" if sector == "scalar" else "trace_form",
        "group_integrals": gk,
        "group_magnitudes": mag,
        "total": total,
        "retained_fraction": float(_relative(np.abs(total), sum(mag))),
        "total_4pi": total / (4.0 * np.pi),
        "reference_total": ref,
        "reference_total_4pi": ref / (4.0 * np.pi),
        "classification_residual_abs": abs(total - ref),
        "classification_residual_rel": float(scan[1]),
        "forward_scan_residual_rel": float(scan.max()),
        "covariant_integral": covariant,
        "covariant_constant": const,
        "covariant_identity_abs": cov_abs,
        "covariant_identity_rel": float(_relative(cov_abs, max(abs(cov_lhs), abs(cov_rhs)))),
        "sign_s": 1.0,
        "vanishing_group_rel": float(_relative(np.abs(gk[3:]), mag[3:]).max()),
    }
    return report, grid, nd, F


def reduce_scalar(cfg, scal, metric, background):
    """Group split of the scalar-gradient contraction; see module docstring."""
    if scal is None:
        raise ValueError("the scalar sector needs a scalar jet")
    return _reduce_common("scalar", cfg, scal, metric, background)[0]


def reduce_yang_mills(cfg, metric, background):
    """Group split of the quartic trace form; see module docstring."""
    return _reduce_common("yang_mills", cfg, None, metric, background)[0]


def b_scan(cfg, scal, spacetime_metric, background, b_list):
    """Scalar-sector groups and route residuals across sphere radii, with the
    shrink exponent of the residual-to-covariant ratio fitted over the scan."""
    b_list = [float(b) for b in b_list]
    if len(b_list) < 2:
        raise ValueError("need at least two radii to fit an exponent")
    rows = []
    for b in b_list:
        rep = reduce_scalar(cfg, scal, BlockMetric(spacetime_metric, b), background)
        gk = rep["group_integrals"]
        ratio = (abs(gk[1]) + abs(gk[0])) / abs(gk[2])
        rows.append({
            "b": b,
            "q": rep["q_scaled"],
            "covariant_group": gk[2],
            "residual_group_1": gk[1],
            "residual_group_0": gk[0],
            "ratio": ratio,
            **{name: rep[name] for name in ("classification_residual_rel", "covariant_identity_rel",
                                            "forward_scan_residual_rel", "vanishing_group_rel")},
        })
    logs_b = np.log([r["b"] for r in rows])
    logs_r = np.log([r["ratio"] for r in rows])
    slope = float(np.polyfit(logs_b, logs_r, 1)[0])
    for r in rows:
        r["fit_exponent"] = slope
    return {"rows": rows, "fit_exponent": slope, "e": background.q}


def two_dim_report(cfg, metric, background):
    """Two spacetime dimensions: the full-space epsilon contraction collapses
    onto the bracket-extended F_01, and the two lowest groups vanish."""
    if cfg.dim != 2 or metric.dim != 2:
        raise ValueError("this check needs exactly two spacetime dimensions")
    rep, grid, nd, F = _reduce_common("yang_mills", cfg, None, metric, background)
    b, q = metric.b, background.q
    eps_contract = eps(F, F, _full_inverse_metric(grid, np.linalg.inv(metric.spacetime), b))
    det_st = float(np.linalg.det(metric.spacetime))
    # node-route bracket-extended F_01
    ft01_nodes = nd["flow"][0, 1] + q * _node_bracket(nd["dAex"][:, 0], nd["dAex"][:, 1], nd["s"])
    predicted = 8.0 * ft01_nodes / (q * b**2 * math.sqrt(abs(det_st)))
    pw_scale = float(np.max(np.abs(predicted))) or 1.0
    pointwise_rel = float(np.max(np.abs(eps_contract - predicted))) / pw_scale
    eps_sq_integral = _integrate(grid, eps_contract**2)
    # coefficient-route integral of the bracket-extended component
    ft01 = field_strength(replace(cfg, coupling=q), 0, 1)
    ft_sq = integral_of_product(ft01, ft01).real
    measured_constant = eps_sq_integral * (q**2 * b**4 * abs(det_st)) / ft_sq
    group_rel = _relative(np.abs(rep["group_integrals"][:2]), rep["group_magnitudes"][:2])
    return {
        "eps_square_integral": eps_sq_integral,
        "covariant_component_integral": ft_sq,
        "measured_constant": measured_constant,
        "pointwise_residual_rel": pointwise_rel,
        "group_0_rel": float(group_rel[0]),
        "group_1_rel": float(group_rel[1]),
        "report": rep,
    }


def born_infeld_report(cfg, metric, background, alpha, C):
    """Determinant-root action of the full-space data against its reduced
    spacetime counterpart built from the bracket-extended field strength.

    lhs is the background-subtracted full integral; rhs carries the same
    subtraction on the spacetime block. kk_reference is the quadratic
    (small-alpha) form, and suppression_ratio compares rhs built with and
    without the bracket term.
    """
    D = cfg.dim
    if D < 2:
        raise ValueError("spacetime dimension %d: field strengths need at least 2" % D)
    b, q = metric.b, background.q
    grid = grid_for_band_limit(2 * cfg.l_max + 8)
    nd = _node_data(cfg, None, grid)
    s = nd["s"]
    g_st = metric.spacetime
    det_st = float(np.linalg.det(g_st))
    if det_st >= 0.0:
        raise ValueError("the spacetime block must carry one negative direction")

    G = np.zeros(s.shape + (D + 2, D + 2))
    G[..., :D, :D] = g_st
    G[..., D, D] = b**2
    G[..., D + 1, D + 1] = b**2 * s**2

    F = _full_field_matrix(nd, D, q)
    F_vac = np.zeros_like(F)
    F_vac[..., D:, D:] = F[..., D:, D:]  # the flux background alone

    w_coord = (grid.w / grid.sin_theta)[:, None] * (2.0 * math.pi / grid.n_phi)
    lhs_full = float(np.sum(w_coord * born_infeld_density(F, G, alpha, C)))
    lhs_vac = float(np.sum(w_coord * born_infeld_density(F_vac, G, alpha, C)))
    lhs = lhs_full - lhs_vac

    charged = replace(cfg, coupling=q)
    mu, nu = np.triu_indices(D, 1)
    vals = synthesize([field_strength(charged, *mn) for mn in zip(mu, nu)], grid).transpose(1, 2, 0)
    ft_nodes = np.zeros(nd["shape"] + (D, D))
    ft_nodes[..., mu, nu], ft_nodes[..., nu, mu] = vals, -vals

    def rhs_integral(Fst):
        dens = born_infeld_density(Fst, G[..., :D, :D], alpha, C) * (abs(alpha) / abs(q))
        return _integrate(grid, dens)

    rhs = rhs_integral(ft_nodes)
    rhs_plain = rhs_integral(F[..., :D, :D])

    _, _, S, _, X = _block_invariants(nd, grid, np.linalg.inv(g_st), b)
    kk_reference = C / 4.0 * b**2 * math.sqrt(-det_st) * _integrate(grid, S + 2.0 * X)

    ratio = lhs / rhs
    return {
        "b": b,
        "alpha": alpha,
        "e": q,
        "lhs": lhs,
        "rhs": rhs,
        "rhs_without_bracket": rhs_plain,
        "ratio": ratio,
        "drift": abs(ratio - 1.0),
        "kk_reference": kk_reference,
        "kk_residual": abs(lhs - kk_reference) / max(abs(kk_reference), 1e-30),
        "suppression_ratio": abs(lhs - rhs) / max(abs(lhs - rhs_plain), 1e-300),
        "lhs_full": lhs_full,
        "lhs_vacuum": lhs_vac,
    }
