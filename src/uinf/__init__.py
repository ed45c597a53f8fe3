"""Numerical workbench for band-limited bracket algebras on the two-sphere,
antisymmetrized-contraction Lagrangians, their reduction over a fluxed sphere,
and the BPS monopole of the reduced Yang-Mills-Higgs system."""

__version__ = "0.1.0"
