import numpy as np
import pytest

from uinf.gauge_fields import random_adjoint_scalar, random_gauge_config
from uinf.monopole import RadialGrid, bps_profile
from uinf.reduction import Background
from uinf.sphere_algebra import HarmonicField


def lorentz(dim):
    d = np.ones(dim)
    d[0] = -1.0
    return np.diag(d)


def zero_field(l_max):
    """The zero field of band limit l_max."""
    return HarmonicField(l_max, np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex))


def coefficient(f, l, m):
    """Coefficient of Y_lm in f; 0j outside its band."""
    if l > f.l_max or abs(m) > l:
        return 0j
    return complex(f.coeffs[l, f.l_max + m])


@pytest.fixture(scope="session")
def reference_profile():
    """Hedgehog profile pair on the standard grid, solved once per session."""
    return bps_profile(RadialGrid(25.0, 4000))


@pytest.fixture(scope="session")
def seed0_fields():
    """The 4d field draw used by the frozen reduction numbers."""
    rng = np.random.default_rng(0)
    cfg = random_gauge_config(4, 3, rng, amplitude=0.4)
    scal = random_adjoint_scalar(4, 3, rng, amplitude=0.4)
    return cfg, scal


@pytest.fixture(scope="session")
def background():
    return Background(2.0)
