"""First-order jets of sphere-valued gauge data at a spacetime point.

A configuration holds the potential components A_mu as sphere fields together
with their spacetime derivatives dA[nu][mu] = d_nu A_mu as independent jet
components; no spacetime grid exists. The bracket-extended field strength,
covariant derivative, and finite gauge motions act on these jets.

Jets carry no second derivatives of the gauge parameter. The transformed
dA[nu][mu] therefore omits the d_nu d_mu omega term; every quantity checked
downstream either antisymmetrizes that term away (field strengths) or never
differentiates omega twice (scalar covariant derivatives).
"""

from dataclasses import dataclass

import numpy as np

from .sphere_algebra import HarmonicField, bracket, brackets, integral_of_product, random_real_field
from .tensor_kernels import minkowski_metric

__all__ = [
    "GaugeConfig",
    "AdjointScalar",
    "field_strength",
    "covariant_derivative",
    "gauge_transform_config",
    "gauge_transform_scalar",
    "yang_mills_integral",
    "scalar_kinetic_integral",
    "random_gauge_config",
    "random_adjoint_scalar",
]


@dataclass(frozen=True)
class GaugeConfig:
    """Potential jet: a[mu] and da[nu][mu] = d_nu a[mu], all sphere fields."""

    dim: int
    coupling: float
    a: tuple
    da: tuple

    def __post_init__(self):
        if len(self.a) != self.dim:
            raise ValueError("need one potential component per spacetime index")
        if len(self.da) != self.dim or any(len(row) != self.dim for row in self.da):
            raise ValueError("derivative jet must be dim x dim")
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "da", tuple(tuple(row) for row in self.da))

    @property
    def l_max(self):
        return max([f.l_max for f in self.a] + [f.l_max for row in self.da for f in row])


@dataclass(frozen=True)
class AdjointScalar:
    """Scalar jet: phi and dphi[mu] = d_mu phi."""

    dim: int
    phi: HarmonicField
    dphi: tuple

    def __post_init__(self):
        if len(self.dphi) != self.dim:
            raise ValueError("need one derivative component per spacetime index")
        object.__setattr__(self, "dphi", tuple(self.dphi))

    @property
    def l_max(self):
        return max([self.phi.l_max] + [f.l_max for f in self.dphi])


def field_strength(cfg, mu, nu):
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + coupling {A_mu, A_nu}."""
    lin = cfg.da[mu][nu] - cfg.da[nu][mu]
    return lin + cfg.coupling * bracket(cfg.a[mu], cfg.a[nu])


def _stack(fields, L, scale=None):
    """The fields' coefficients, each padded with zeros to band L, as one
    (fields, L + 1, 2L + 1) stack. A scale multiplies each field on its own
    band before the padding, as `scale * field` does, so that padded slots
    hold +0.0 whatever the scale."""
    out = np.zeros((len(fields), L + 1, 2 * L + 1), dtype=complex)
    for row, f in zip(out, fields):
        b = f.l_max
        row[:b + 1, L - b:L + b + 1] = f.coeffs if scale is None else f.coeffs * scale
    return out


def _unstack(stack, *operands):
    """One HarmonicField per stack row, cut back to the largest band limit
    among that row's operands: the band that per-field arithmetic gives."""
    L = stack.shape[1] - 1
    bands = [max(f.l_max for f in row) for row in zip(*operands)]
    return [HarmonicField(b, c[:b + 1, L - b:L + b + 1]) for c, b in zip(stack, bands)]


# The motions and the covariant derivative take their brackets from one
# `brackets` call and evaluate the per-field formulas on coefficient stacks,
# in the same order of operations, so each output equals the per-field
# arithmetic bit for bit: zero padding changes no sum, and each scalar
# product acts on its operand's own band or on slots its output drops.


def covariant_derivative(cfg, scal):
    """(D_mu phi for mu in range(dim)), D_mu phi = d_mu phi + coupling
    {A_mu, phi}."""
    brs = brackets([(a, scal.phi) for a in cfg.a])
    L = max(f.l_max for f in scal.dphi + tuple(brs))
    d = _stack(scal.dphi, L) + _stack(brs, L, cfg.coupling)
    return tuple(_unstack(d, scal.dphi, brs))


def gauge_transform_config(cfg, omega, domega, t):
    """Move the potential jet by t along the gauge direction omega.

    A_mu gains t (d_mu omega + coupling {A_mu, omega}); the derivative jet
    gains the corresponding first-derivative terms, without d_nu d_mu omega
    (see the module docstring).
    """
    g, n = cfg.coupling, cfg.dim
    da = [f for row in cfg.da for f in row]  # da[nu][mu] at nu * n + mu
    brs = brackets([(a, omega) for a in cfg.a] + [(f, omega) for f in da]
                   + [(a, w) for w in domega for a in cfg.a])
    br_a, br_da, br_dw = brs[:n], brs[n:n + n * n], brs[n + n * n:]
    L = max(f.l_max for f in list(domega) + brs)  # no potential exceeds its brackets
    a_new = _stack(cfg.a, L) + t * (_stack(domega, L) + _stack(br_a, L, g))
    da_new = _stack(da, L) + t * (g * (_stack(br_da, L) + _stack(br_dw, L)))
    da_new = _unstack(da_new, da, br_da, br_dw)
    return GaugeConfig(n, g, _unstack(a_new, cfg.a, domega, br_a),
                       [da_new[nu * n:(nu + 1) * n] for nu in range(n)])


def gauge_transform_scalar(scal, omega, domega, t, coupling):
    """Move the scalar jet by t along the gauge direction omega."""
    tg, dphi = t * coupling, scal.dphi
    brs = brackets([(scal.phi, omega)] + [(f, omega) for f in dphi]
                   + [(scal.phi, w) for w in domega])
    br_phi, br_dphi, br_dw = brs[:1], brs[1:len(dphi) + 1], brs[len(dphi) + 1:]
    L = max(f.l_max for f in brs)  # no operand exceeds its bracket
    phi_new = _stack([scal.phi], L) + tg * _stack(br_phi, L)
    dphi_new = _stack(dphi, L) + tg * (_stack(br_dphi, L) + _stack(br_dw, L))
    return AdjointScalar(scal.dim, _unstack(phi_new, [scal.phi], br_phi)[0],
                         _unstack(dphi_new, dphi, br_dphi, br_dw))


def yang_mills_integral(cfg, metric=None):
    """integral F_{mu nu} F^{mu nu} dOmega with a constant spacetime metric."""
    if metric is None:
        metric = minkowski_metric(cfg.dim)
    ginv = np.linalg.inv(metric)
    fs = {}
    for mu in range(cfg.dim):
        for nu in range(mu + 1, cfg.dim):
            fs[(mu, nu)] = field_strength(cfg, mu, nu)
    total = 0.0
    for (mu, nu), f1 in fs.items():
        for (rho, sig), f2 in fs.items():
            w = ginv[mu, rho] * ginv[nu, sig] - ginv[mu, sig] * ginv[nu, rho]
            if w == 0.0:
                continue
            total += 2.0 * w * integral_of_product(f1, f2).real
    return total


def scalar_kinetic_integral(cfg, scal, metric):
    """integral D_mu phi D^mu phi dOmega with a constant spacetime metric."""
    ginv = np.linalg.inv(metric)
    d = covariant_derivative(cfg, scal)
    total = 0.0
    for mu in range(cfg.dim):
        for nu in range(cfg.dim):
            if ginv[mu, nu] == 0.0:
                continue
            total += ginv[mu, nu] * integral_of_product(d[mu], d[nu]).real
    return total


def random_gauge_config(dim, l_max, rng, amplitude=1.0):
    """Random real jet with independent components at coupling 1."""
    a = tuple(random_real_field(l_max, rng, amplitude) for _ in range(dim))
    da = tuple(tuple(random_real_field(l_max, rng, amplitude) for _ in range(dim))
               for _ in range(dim))
    return GaugeConfig(dim, 1.0, a, da)


def random_adjoint_scalar(dim, l_max, rng, amplitude):
    phi = random_real_field(l_max, rng, amplitude)
    dphi = tuple(random_real_field(l_max, rng, amplitude) for _ in range(dim))
    return AdjointScalar(dim, phi, dphi)
