"""Reference forms of the kernel moments, used only to cross-check
:mod:`hhbounds.kernel`: the moment of the second kernel half, a closed form
written from that half, and adaptive integration of both halves."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hhbounds import oracle
from hhbounds.kernel import (
    weighted_moment,
    weighted_moment_exact,
    weighted_moment_large_lambda,
    weighted_moment_small_lambda,
)


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")


@dataclass(frozen=True)
class MomentPair:
    """Moments of the two kernel halves; equal for every lam by symmetry."""

    first_half: float   # integral of |t (t - lam)| over [0, 1/2]
    second_half: float  # integral of |(1-t)(1 - lam - t)| over [1/2, 1]


def moment_abs(lam: float) -> MomentPair:
    """Both half-moments of the absolute kernel factors (always equal)."""
    m = weighted_moment(lam)
    return MomentPair(first_half=m, second_half=m)


def moment_abs_exact(lam) -> tuple[Fraction, Fraction]:
    m = weighted_moment_exact(lam)
    return (m, m)


def weighted_moment_small_lambda_mirror(lam: float) -> float:
    """Alternate closed form of the same moment, written from the second
    kernel half: 2(1-lam)^3/3 + lam(1-lam)^2 + 7 lam/8 - 5/8.  Algebraically
    identical to :func:`hhbounds.kernel.weighted_moment_small_lambda`."""
    _check_lam(lam)
    if lam > 0.5:
        raise ValueError("small-lambda moment requires lam <= 1/2")
    one = 1.0 - lam
    return 2.0 * one**3 / 3.0 + lam * one**2 + 7.0 * lam / 8.0 - 5.0 / 8.0


def weighted_moment_small_lambda_mirror_exact(lam) -> Fraction:
    lf = Fraction(lam)
    if not 0 <= lf <= Fraction(1, 2):
        raise ValueError("small-lambda moment requires 0 <= lam <= 1/2")
    one = 1 - lf
    return 2 * one**3 / 3 + lf * one**2 + 7 * lf / 8 - Fraction(5, 8)


def _split_points(lo: float, hi: float, *interior: float) -> list[float]:
    return sorted({lo, hi, *(p for p in interior if lo < p < hi)})


def verify_moments_numeric(lam: float, tol: float = 1e-14) -> float:
    """Cross-check every closed-form moment against adaptive integration.

    The absolute-value integrands have kinks where t(t-lam) changes sign
    (t = lam on the first half, t = 1-lam on the second), so integration is
    split there before calling the oracle.  Returns the maximum absolute
    discrepancy over all implemented formulas.
    """
    _check_lam(lam)

    def first(t):
        return np.abs(t * (t - lam))

    def second(t):
        return np.abs((1.0 - t) * (1.0 - lam - t))

    def piecewise(fn, lo, hi, *interior):
        total = 0.0
        pts = _split_points(lo, hi, *interior)
        for a, b in zip(pts[:-1], pts[1:]):
            total += oracle.integrate(fn, (a, b), tol).value
        return total

    first_num = piecewise(first, 0.0, 0.5, lam)
    second_num = piecewise(second, 0.5, 1.0, 1.0 - lam)

    pairs = [
        (moment_abs(lam).first_half, first_num),
        (moment_abs(lam).second_half, second_num),
    ]
    if lam <= 0.5:
        pairs.append((weighted_moment_small_lambda(lam), first_num))
        pairs.append((weighted_moment_small_lambda_mirror(lam), second_num))
    if lam >= 0.5:
        pairs.append((weighted_moment_large_lambda(lam), first_num))
        pairs.append((lam / 4.0 - 1.0 / 12.0, first_num + second_num))
    return max(abs(closed - numeric) for closed, numeric in pairs)
