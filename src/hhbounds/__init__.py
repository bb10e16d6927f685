"""Quadrature deviation functionals, P-convexity error bounds, and an
inequality verification harness with exact-arithmetic confirmation."""

__version__ = "0.1.0"

__all__ = ["__version__"]
