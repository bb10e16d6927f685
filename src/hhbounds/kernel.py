"""The deviation kernel k(t) and its moment integrals.

The lambda-family deviation functional admits the representation

    (lam-1) f(m) - lam (f(a)+f(b))/2 + avg(f) = (b-a)^2 int_0^1 k(t) f''(ta+(1-t)b) dt

with the piecewise quadratic kernel

    k(t) = t (t - lam) / 2          for 0 <= t <= 1/2,
    k(t) = (1-t)(1 - lam - t) / 2   for 1/2 <= t <= 1.

Both branches agree at t = 1/2 and the kernel is symmetric about it.  The
moment integrals of |t (t - lam)| over [0, 1/2] (equivalently of the mirrored
factor over [1/2, 1]) have the closed forms

    lam^3/3 - lam/8 + 1/24      for 0 <= lam <= 1/2,
    lam/8 - 1/24                for 1/2 <= lam <= 1,

both equal to 1/48 at the seam.  Each closed form is written once and runs
in the number type of its argument: a float gives the double-precision
value, a Fraction the exact rational one.  The ``_exact`` names convert
their arguments to Fraction and call the same formula.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "kernel_value",
    "kernel_value_exact",
    "weighted_moment",
    "weighted_moment_exact",
    "weighted_moment_small_lambda",
    "weighted_moment_small_lambda_exact",
    "weighted_moment_large_lambda",
    "weighted_moment_large_lambda_exact",
]


def _check_lam(lam) -> None:
    if not 0 <= lam <= 1:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")


def _branches(t, lam):
    """Both kernel branches at t, in the number type of t (or its arrays)."""
    return t / 2 * (t - lam), (1 - t) / 2 * (1 - lam - t)


def kernel_value(t, lam: float):
    """Piecewise kernel value; accepts scalars or numpy arrays for t."""
    _check_lam(float(lam))
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise ValueError("t must lie in [0, 1]")
    out = np.where(ts <= 0.5, *_branches(ts, lam))
    if np.isscalar(t) or getattr(t, "ndim", 0) == 0:
        return float(out)
    return out


def kernel_value_exact(t, lam) -> Fraction:
    tf, lf = Fraction(t), Fraction(lam)
    if not 0 <= tf <= 1 or not 0 <= lf <= 1:
        raise ValueError("t and lam must lie in [0, 1]")
    first, second = _branches(tf, lf)
    return first if 2 * tf <= 1 else second


def weighted_moment_small_lambda(lam):
    """Closed form lam^3/3 - lam/8 + 1/24, valid for lam <= 1/2."""
    _check_lam(lam)
    if 2 * lam > 1:
        raise ValueError("small-lambda moment requires lam <= 1/2")
    return lam**3 / 3 - lam / 8 + type(lam)(1) / 24


def weighted_moment_small_lambda_exact(lam) -> Fraction:
    return weighted_moment_small_lambda(Fraction(lam))


def weighted_moment_large_lambda(lam):
    """Closed form lam/8 - 1/24 for one kernel half, valid for lam >= 1/2.

    The sum over both halves is lam/4 - 1/12.
    """
    _check_lam(lam)
    if 2 * lam < 1:
        raise ValueError("large-lambda moment requires lam >= 1/2")
    return lam / 8 - type(lam)(1) / 24


def weighted_moment_large_lambda_exact(lam) -> Fraction:
    return weighted_moment_large_lambda(Fraction(lam))


def weighted_moment(lam):
    """One-half kernel moment with the seam assigned to the small branch."""
    _check_lam(lam)
    if 2 * lam <= 1:
        return weighted_moment_small_lambda(lam)
    return weighted_moment_large_lambda(lam)


def weighted_moment_exact(lam) -> Fraction:
    return weighted_moment(Fraction(lam))
