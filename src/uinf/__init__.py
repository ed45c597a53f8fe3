"""Numerical workbench for band-limited bracket algebras on the two-sphere,
antisymmetrized-contraction Lagrangians, their reduction over a fluxed sphere,
and the BPS monopole of the reduced Yang-Mills-Higgs system."""

__version__ = "0.1.0"

from . import sphere_algebra
from . import tensor_kernels
from . import gauge_fields
from . import reduction
from . import monopole

__all__ = [
    "sphere_algebra",
    "tensor_kernels",
    "gauge_fields",
    "reduction",
    "monopole",
    "__version__",
]
