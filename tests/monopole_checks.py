"""The variational harness of the monopole energy: the analytic gradient of
the quadratic energy, random deformations of a profile and a comparison of
the two against difference quotients, and the hand-derived forcing of the
correction density.

No package code calls these; they exist to check `uinf.monopole` from the
outside, so they live with the tests that use them (criterion 12, the
variational identity, the Jacobian of the response operator, the forcing
that the package derives on jets, and that forcing taken as four
one-direction jet passes over all nodes).
"""

import numpy as np

from uinf import monopole
from uinf.monopole import MonopoleProfile, energy_density, fd1


def fd2(values, h):
    """Fourth-order second derivative, six-point one-sided rows at the ends."""
    y = np.asarray(values, dtype=float)
    out = np.empty_like(y)
    hh = 12.0 * h * h
    out[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]) / hh
    out[0] = (45.0 * y[0] - 154.0 * y[1] + 214.0 * y[2] - 156.0 * y[3] + 61.0 * y[4] - 10.0 * y[5]) / hh
    out[1] = (10.0 * y[0] - 15.0 * y[1] - 4.0 * y[2] + 14.0 * y[3] - 6.0 * y[4] + y[5]) / hh
    out[-1] = (45.0 * y[-1] - 154.0 * y[-2] + 214.0 * y[-3] - 156.0 * y[-4] + 61.0 * y[-5] - 10.0 * y[-6]) / hh
    out[-2] = (10.0 * y[-1] - 15.0 * y[-2] - 4.0 * y[-3] + 14.0 * y[-4] - 6.0 * y[-5] + y[-6]) / hh
    return out


def sine_bump(grid, j, amplitude):
    """Mode amplitude*sin(j*pi*(xi - h)/(xi_max - h)); vanishes at both ends."""
    xi = grid.xi
    return amplitude * np.sin(j * np.pi * (xi - xi[0]) / (xi[-1] - xi[0]))


def gaussian_bump(grid, center, width, amplitude):
    """Localized packet amplitude*exp(-(xi-center)**2/(2 width**2)).

    With the center a comfortable number of widths inside the domain the
    packet and all its derivatives are exponentially small at both ends,
    which is what the gradient pairing needs.
    """
    xi = grid.xi
    return amplitude * np.exp(-((xi - center) ** 2) / (2.0 * width ** 2))


def perturb_profile(profile, rng, amplitude=0.05, modes=6):
    """Add random low-mode bumps to both profile functions.

    The bumps vanish at the first and last node, so the boundary term of the
    energy rearrangement is untouched.
    """
    grid = profile.grid
    dK = np.zeros_like(profile.K)
    dH = np.zeros_like(profile.H)
    for j in range(1, modes + 1):
        dK += sine_bump(grid, j, amplitude * rng.standard_normal() / j)
        dH += sine_bump(grid, j, amplitude * rng.standard_normal() / j)
    return MonopoleProfile(grid=grid, K=profile.K + dK, H=profile.H + dH)


def functional_gradient(profile):
    """Pointwise variational derivatives of the quadratic energy.

    dE/dK = -2 K'' + 2 K H**2/xi**2 + 2 K (K**2 - 1)/xi**2
    dE/dH = -H'' + 2 K**2 H/xi**2

    Boundary contributions of the integration by parts are dropped; pair
    these only against directions that vanish at both ends.
    """
    xi = profile.grid.xi
    h = profile.grid.h
    K, H = profile.K, profile.H
    gK = -2.0 * fd2(K, h) + 2.0 * K * H ** 2 / xi ** 2 + 2.0 * K * (K ** 2 - 1.0) / xi ** 2
    gH = -fd2(H, h) + 2.0 * K ** 2 * H / xi ** 2
    return gK, gH


def _energy_of_arrays(grid, K, H):
    return float(monopole._simpson(energy_density(MonopoleProfile(grid=grid, K=K, H=H)), grid.h))


def gateaux_difference(profile, direction_K, direction_H):
    """Central-difference directional derivative of the raw energy integral."""
    grid = profile.grid
    step = 1e-5
    plus = _energy_of_arrays(grid, profile.K + step * direction_K, profile.H + step * direction_H)
    minus = _energy_of_arrays(grid, profile.K - step * direction_K, profile.H - step * direction_H)
    return (plus - minus) / (2.0 * step)


def random_direction(grid, rng):
    """Three gaussian packets with centers in [0.28, 0.68]*xi_max, scaled to
    unit sup norm."""
    lo = 0.28 * grid.xi_max
    hi = 0.68 * grid.xi_max
    width_scale = grid.xi_max / 25.0
    d = np.zeros_like(grid.xi)
    for _ in range(3):
        center = rng.uniform(lo, hi)
        width = rng.uniform(0.6, 1.2) * width_scale
        d += gaussian_bump(grid, center, width, rng.standard_normal())
    return d / np.abs(d).max()


def variational_check(profile, rng=None, pairs=100):
    """Compare the analytic gradient against difference quotients.

    Each trial deforms the base profile with random bumps (so the gradient
    is not sitting at a critical point), draws a random direction pair, and
    compares the central difference of the energy with the paired integral
    of the analytic gradient.

    The directions are sums of gaussian packets localized well inside the
    domain, scaled to unit sup norm.  Exponentially small endpoint values
    make the integration by parts behind the analytic gradient exact in
    practice, and keeping the packets away from the origin matters: the
    1/xi**2 factors in the density give difference stencils and quadrature
    near the first node an O(h) bias that would otherwise dominate the
    comparison.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    h = profile.grid.h
    worst = 0.0
    total = 0.0
    for _ in range(pairs):
        base = perturb_profile(profile, rng, amplitude=0.2, modes=8)
        u = random_direction(profile.grid, rng)
        v = random_direction(profile.grid, rng)
        fd = gateaux_difference(base, u, v)
        gK, gH = functional_gradient(base)
        analytic = float(monopole._simpson(gK * u + gH * v, h))
        rel = abs(fd - analytic) / max(abs(analytic), 1.0)
        worst = max(worst, rel)
        total += rel
    return {"pairs": pairs, "max_rel_error": worst, "mean_rel_error": total / pairs}


def hand_forcing(profile, coeffs):
    """Variational derivatives of the correction integral at the base profile.

    With u = 1 - K and the five-term density of second_line_density,

      Phi_K = -d/dxi[2 a H**2 K' + 2 d K' u**2] - 2 b (H'-H/xi)**2 u
              - 2 c H**2 u - 2 d K'**2 u - 4 e xi**2 u**3
      Phi_H = -d/dxi[2 b (H'-H/xi) u**2] - (2 b/xi)(H'-H/xi) u**2
              + 2 a H K'**2 + 2 c H u**2

    where (a, b, c, d, e) are the table entries in the order documented at
    SECOND_LINE_COEFFS.  The outer d/dxi is taken numerically.
    """
    c = monopole._filled_coeffs(coeffs)
    a, b = c["h2_kprime2"], c["dh2_1mk2"]
    cc, d, e = c["h2_1mk2"], c["kprime2_1mk2"], c["xi2_1mk4"]
    xi = profile.grid.xi
    h = profile.grid.h
    K, H = profile.K, profile.H
    Kp, Hp = profile.derivatives
    u = 1.0 - K
    w = Hp - H / xi
    phi_K = (
        -fd1(2.0 * a * H ** 2 * Kp + 2.0 * d * Kp * u ** 2, h)
        - 2.0 * b * w ** 2 * u
        - 2.0 * cc * H ** 2 * u
        - 2.0 * d * Kp ** 2 * u
        - 4.0 * e * xi ** 2 * u ** 3
    )
    phi_H = (
        -fd1(2.0 * b * w * u ** 2, h)
        - (2.0 * b / xi) * w * u ** 2
        + 2.0 * a * H * Kp ** 2
        + 2.0 * cc * H * u ** 2
    )
    return phi_K, phi_H


def single_seed_forcing(profile, c):
    """linearized_forcing as four passes of one-direction jets over all
    nodes, each seeding one of K, H, K', H' with the unit tangent 1.0: the
    package's one blocked pass in four directions must give these bits."""
    xi = profile.grid.xi
    args = (profile.K, profile.H) + profile.derivatives
    dK, dH, dKp, dHp = (
        monopole._second_line_density_at(xi, *args[:i], monopole._Jet([q, 1.0], 1), *args[i + 1:], c).rows[1]
        for i, q in enumerate(args))
    return dK - fd1(dKp, profile.grid.h), dH - fd1(dHp, profile.grid.h)
