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


def covariant_derivative(cfg, scal):
    """(D_mu phi for mu in range(dim)), D_mu phi = d_mu phi + coupling
    {A_mu, phi}; the dim brackets come from one `brackets` call."""
    brs = brackets([(a, scal.phi) for a in cfg.a])
    return tuple(dphi + cfg.coupling * br for dphi, br in zip(scal.dphi, brs))


def gauge_transform_config(cfg, omega, domega, t):
    """Move the potential jet by t along the gauge direction omega.

    A_mu gains t (d_mu omega + coupling {A_mu, omega}); the derivative jet
    gains the corresponding first-derivative terms, without d_nu d_mu omega
    (see the module docstring). All dim (2 dim + 1) brackets come from one
    `brackets` call, so each field is transformed once.
    """
    g, dims = cfg.coupling, range(cfg.dim)
    brs = iter(brackets([(a, omega) for a in cfg.a] + [
        pair for nu in dims for mu in dims
        for pair in ((cfg.da[nu][mu], omega), (cfg.a[mu], domega[nu]))]))
    a_new = tuple(cfg.a[mu] + t * (domega[mu] + g * next(brs)) for mu in dims)
    da_new = tuple(tuple(cfg.da[nu][mu] + t * (g * (next(brs) + next(brs))) for mu in dims)
                   for nu in dims)
    return GaugeConfig(cfg.dim, g, a_new, da_new)


def gauge_transform_scalar(scal, omega, domega, t, coupling):
    """Move the scalar jet by t along the gauge direction omega; its
    2 dim + 1 brackets come from one `brackets` call."""
    g, dims = coupling, range(scal.dim)
    brs = iter(brackets([(scal.phi, omega)] + [
        pair for mu in dims for pair in ((scal.dphi[mu], omega), (scal.phi, domega[mu]))]))
    phi_new = scal.phi + t * g * next(brs)
    dphi_new = tuple(scal.dphi[mu] + t * g * (next(brs) + next(brs)) for mu in dims)
    return AdjointScalar(scal.dim, phi_new, dphi_new)


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
