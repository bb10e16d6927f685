"""Deviation functionals: the left-hand sides of the verified inequalities.

The central object is the lambda-family functional

    F(lam) = (lam - 1) f(m) - lam (f(a) + f(b))/2 + avg(f),

where m is the midpoint and avg(f) the average value over [a, b].  Its
specializations are the classical quadrature gaps:

    lam = 0    midpoint gap        avg(f) - f(m)
    lam = 1    (minus) trapezoid   avg(f) - (f(a)+f(b))/2
    lam = 1/3  (minus) Simpson deviation

Signed values are retained; absolute values are taken only where a bound
claim demands it.  Polynomials with rational coefficients are evaluated on
the exact rational path automatically.

Every functional reads one panel tuple (f(a), f(m), f(b), avg(f)) and is
written once: floats in the tuple give the double-precision value,
Fractions the exact one.  The ``_exact`` names build the tuple in exact
rationals (polynomials only) and call the same formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import kernel, oracle
from .corpus import Interval, TestFunction
from .oracle import (
    _as_fraction,
    _terms_at,
    _terms_integral,
    _terms_integral_ratio,
    _value_at,
)

__all__ = [
    "DeviationValue",
    "average_value",
    "average_value_exact",
    "functional_lambda",
    "functional_lambda_exact",
    "identity_rhs",
    "identity_residual",
    "hh_gap_left",
    "hh_gap_right",
    "hh_gap_left_exact",
    "hh_gap_right_exact",
    "hh_p_check",
    "simpson_deviation",
    "simpson_deviation_exact",
]


@dataclass(frozen=True)
class DeviationValue:
    """Signed deviation with its absolute value."""

    value: float

    @property
    def abs_value(self) -> float:
        return abs(self.value)


def _require_subdomain(f: TestFunction, domain: Interval) -> None:
    if not f.domain.contains(domain):
        raise ValueError(
            f"interval [{domain.lo}, {domain.hi}] is outside the validity "
            f"domain of {f.id} [{f.domain.lo}, {f.domain.hi}]"
        )


def average_value(f: TestFunction, domain: Interval, tol: float = 1e-12) -> float:
    """Average value of f over the interval, preferring exact routes.

    Order of preference: exact rational integration for polynomials, then a
    closed-form antiderivative difference, then the adaptive oracle.
    """
    _require_subdomain(f, domain)
    if f.poly_coeffs is not None:  # the exact average, correctly rounded
        num, den = _terms_integral_ratio(f._terms, domain.lo, domain.hi, average=True)
        return num / den
    if f.exact_integral is not None:
        return f.exact_integral(domain.lo, domain.hi) / domain.width
    return oracle.integrate(f.f, domain, tol).value / domain.width


def average_value_exact(f: TestFunction, domain) -> Fraction:
    """Exact average value; requires the polynomial coefficient path."""
    if f.poly_coeffs is None:
        raise ValueError(f"{f.id} has no exact rational path")
    return _terms_integral(f._terms, domain.lo, domain.hi, average=True)


def _samples(f: TestFunction, domain: Interval, avg=None) -> tuple:
    """The panel tuple (f(a), f(m), f(b), avg(f)) in floats; ``avg`` is
    computed when not given.  An f that raises gives EvaluationError."""
    if avg is None:
        avg = average_value(f, domain)
    fm = _value_at(f.f, domain.midpoint)
    return _value_at(f.f, domain.lo), fm, _value_at(f.f, domain.hi), avg


def _samples_exact(f: TestFunction, domain, avg=None) -> tuple:
    """The panel tuple in exact rationals (polynomials only); ``avg`` is
    computed when not given."""
    if avg is None:
        avg = average_value_exact(f, domain)
    lo, hi = _as_fraction(domain.lo), _as_fraction(domain.hi)
    t = f._terms
    return _terms_at(t, lo), _terms_at(t, (lo + hi) / 2), _terms_at(t, hi), avg


def _lambda_value(s: tuple, lam):
    """F(lam) = (lam - 1) f(m) - lam (f(a) + f(b))/2 + avg(f)."""
    fa, fm, fb, avg = s
    return (lam - 1) * fm - lam * (fa + fb) / 2 + avg


def _gap_left(s: tuple):
    """avg(f) - f(m)."""
    return s[3] - s[1]


def _gap_right(s: tuple):
    """(f(a) + f(b))/2 - avg(f)."""
    return (s[0] + s[2]) / 2 - s[3]


def _simpson_value(s: tuple):
    """(1/3) [ (f(a)+f(b))/2 + 2 f(m) ] - avg(f)."""
    fa, fm, fb, avg = s
    return ((fa + fb) / 2 + 2 * fm) / 3 - avg


def functional_lambda(
    f: TestFunction,
    domain: Interval,
    lam: float,
    avg: Optional[float] = None,
) -> DeviationValue:
    """The lambda-family deviation functional, signed.

    ``avg`` short-circuits the integral when the caller already has it
    (campaigns reuse one average across the whole lambda grid).
    """
    kernel._check_lam(lam)
    return DeviationValue(_lambda_value(_samples(f, domain, avg), lam))


def functional_lambda_exact(f: TestFunction, domain, lam) -> Fraction:
    """Exact rational value of the functional (polynomials only)."""
    lf = Fraction(lam)
    kernel._check_lam(lf)
    return _lambda_value(_samples_exact(f, domain), lf)


def identity_rhs(
    f: TestFunction, domain: Interval, lam: float, tol: float = 1e-12
) -> float:
    """Kernel-integral side of the identity: (b-a)^2 int k(t) f''(ta+(1-t)b) dt.

    The t-integral is split at the kernel branch point and at the sign-change
    abscissae so each oracle call sees a smooth piece.
    """
    _require_subdomain(f, domain)
    kernel._check_lam(lam)
    a, b = domain.lo, domain.hi

    def integrand(t):
        return kernel.kernel_value(t, lam) * f.d2(t * a + (1.0 - t) * b)

    pts = sorted({0.0, 1.0, *(p for p in (lam, 0.5, 1.0 - lam) if 0.0 < p < 1.0)})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += oracle.integrate(integrand, (lo, hi), tol).value
    return (b - a) ** 2 * total


def identity_residual(
    f: TestFunction, domain: Interval, lam: float, tol: float = 1e-12
) -> float:
    """Absolute difference between the functional and its kernel integral."""
    lhs = functional_lambda(f, domain, lam).value
    rhs = identity_rhs(f, domain, lam, tol)
    return abs(lhs - rhs)


def hh_gap_left(f: TestFunction, domain: Interval) -> float:
    """avg(f) - f(midpoint); nonnegative for convex f."""
    return _gap_left(_samples(f, domain))


def hh_gap_right(f: TestFunction, domain: Interval) -> float:
    """(f(a)+f(b))/2 - avg(f); nonnegative for convex f."""
    return _gap_right(_samples(f, domain))


def hh_gap_left_exact(f: TestFunction, domain) -> Fraction:
    return _gap_left(_samples_exact(f, domain))


def hh_gap_right_exact(f: TestFunction, domain) -> Fraction:
    return _gap_right(_samples_exact(f, domain))


def hh_p_check(f: TestFunction, domain: Interval, tol: float = 1e-12) -> bool:
    """Two-sided average-value check for P-functions:

    f(m) <= 2 avg(f) and 2 avg(f) <= 2 (f(a) + f(b)), with margin >= -tol.
    """
    fa, fm, fb, avg = _samples(f, domain)
    return (2.0 * avg - fm >= -tol) and (2.0 * (fa + fb) - 2.0 * avg >= -tol)


def simpson_deviation(f: TestFunction, domain: Interval) -> DeviationValue:
    """Signed single-panel Simpson deviation from the average value:

    (1/3) [ (f(a)+f(b))/2 + 2 f(m) ] - avg(f).

    Equals minus the lambda-family functional at lam = 1/3.
    """
    return DeviationValue(_simpson_value(_samples(f, domain)))


def simpson_deviation_exact(f: TestFunction, domain) -> Fraction:
    return _simpson_value(_samples_exact(f, domain))
