"""Right-hand-side bounds on the deviation functionals.

The lambda-family bounds come in two constant conventions that differ by a
factor of two:

* ``stated``  -- the coefficient family (b-a)^2/48 * (8 lam^3 - 3 lam + 1)
  (small lam) and (b-a)^2/48 * (3 lam - 1) (large lam), paired with the
  power-sum term (|f''(a)|^q + |f''(b)|^q)^(1/q).
* ``derived`` -- the same shapes with /24 in place of /48.  This is the
  constant the kernel-moment chain actually yields, and at q = 1 it
  coincides with :func:`bound_theorem5`.

Both conventions are first-class: the derived family is sound for P-convex
|f''|^q and asserted as an invariant, while the stated family is treated as
a falsifiable claim by the harness.  Rule shortcuts (midpoint, trapezoid,
Simpson) fix lam to 0, 1 and 1/3 respectively.

Each bound is written once and runs in the number type of its inputs.
Floats give the double-precision value.  Fractions (an :class:`Interval`
with Fraction endpoints, Fraction lam and derivative data) give the exact
rational value, except that a q-th root with q != 1 is taken in mpf at the
working precision, the one irrational step.  The ``_exact`` and ``_mp``
names convert their arguments and call the same formula.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

import mpmath

from . import kernel
from .corpus import Interval
from .oracle import to_mpf

__all__ = [
    "EndpointData",
    "DerivativeEnvelope",
    "Rule",
    "Variant",
    "RULE_LAMBDA_EXACT",
    "bound_theorem5",
    "bound_theorem5_exact",
    "bound_theorem6",
    "bound_theorem6_exact",
    "bound_theorem6_mp",
    "bound_corollary",
    "bound_corollary_exact",
    "bound_bounded_m",
    "bound_bounded_m_exact",
    "bound_classical",
    "bound_classical_exact",
]

Rule = Literal["midpoint", "trapezoid", "simpson"]
Variant = Literal["stated", "derived"]
MForm = Literal["with_q", "relaxed"]

RULE_LAMBDA_EXACT: dict[str, Fraction] = {
    "midpoint": Fraction(0),
    "trapezoid": Fraction(1),
    "simpson": Fraction(1, 3),
}

# Stated per-rule denominators C of (b-a)^2 / C.  The stated constant halves
# the kernel moment, so C = 2 / moment(lam): 48, 24 and 162.
_RULE_DENOMINATOR = {
    rule: int(2 / kernel.weighted_moment(lam))
    for rule, lam in RULE_LAMBDA_EXACT.items()
}


@dataclass(frozen=True)
class EndpointData:
    """Absolute second-derivative values at the endpoints."""

    m_a: float
    m_b: float

    def __post_init__(self) -> None:
        if self.m_a < 0 or self.m_b < 0:
            raise ValueError("endpoint data must be nonnegative")


@dataclass(frozen=True)
class DerivativeEnvelope:
    """Optional derivative bounds: sup |f''|, a two-sided f'' range, and
    sup |f''''| for the classical fourth-derivative Simpson bound."""

    sup_abs_d2: Optional[float] = None
    lower_d2: Optional[float] = None
    upper_d2: Optional[float] = None
    sup_abs_d4: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.lower_d2 is not None
            and self.upper_d2 is not None
            and self.lower_d2 > self.upper_d2
        ):
            raise ValueError("lower_d2 must not exceed upper_d2")
        if self.sup_abs_d2 is not None and self.sup_abs_d2 < 0:
            raise ValueError("sup_abs_d2 must be nonnegative")
        if self.sup_abs_d4 is not None and self.sup_abs_d4 < 0:
            raise ValueError("sup_abs_d4 must be nonnegative")


def _check_q(q) -> None:
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")


def _check_variant(variant: str) -> None:
    if variant not in ("stated", "derived"):
        raise ValueError(f"variant must be 'stated' or 'derived', got {variant!r}")


def _exact(domain) -> Interval:
    """``domain`` with its endpoints as exact rationals."""
    return Interval(Fraction(domain.lo), Fraction(domain.hi))


def _exact_or_none(x) -> Optional[Fraction]:
    return None if x is None else Fraction(x)


def _power_sum(m_a, m_b, q):
    """(m_a^q + m_b^q)^(1/q), which is m_a + m_b at q = 1 in any number type.

    For other q the root is taken in float, or, for Fraction inputs, in mpf
    at the working precision.
    """
    if q == 1:
        return m_a + m_b
    if type(m_a) is Fraction:
        qm = to_mpf(q)
        return (to_mpf(m_a) ** qm + to_mpf(m_b) ** qm) ** (1 / qm)
    return (m_a**q + m_b**q) ** (1.0 / q)


def _times(c, s):
    """c * s, with an exact c converted to mpf once when s is an mpf root
    (a c that is already an mpf is used as it is)."""
    if isinstance(s, mpmath.mpf) and not isinstance(c, mpmath.mpf):
        return to_mpf(c) * s
    return c * s


def _coefficient(domain, lam):
    """(b-a)^2 * moment(lam), the lam factor of theorems 5 and 6."""
    return domain.width**2 * kernel.weighted_moment(lam)


def _combine(c, s, variant: Variant):
    """The power-mean bound from its lam factor ``c`` and power sum ``s``:
    c * s for the derived constant, half of it for the stated one."""
    bound = _times(c, s)
    return bound if variant == "derived" else bound / 2


def bound_theorem5(domain: Interval, lam, e: EndpointData):
    """Endpoint-sum deviation bound under P-convexity of |f''|:

    (b-a)^2/24 * (8 lam^3 - 3 lam + 1) * (m_a + m_b)   for lam <= 1/2,
    (b-a)^2/24 * (3 lam - 1) * (m_a + m_b)             for lam >= 1/2.

    The two branches agree at the seam (both give (b-a)^2/48 there).
    """
    return _coefficient(domain, lam) * (e.m_a + e.m_b)


def bound_theorem5_exact(domain, lam, m_a, m_b) -> Fraction:
    e = EndpointData(Fraction(m_a), Fraction(m_b))
    return bound_theorem5(_exact(domain), Fraction(lam), e)


def bound_theorem6(domain: Interval, lam, q, e: EndpointData, variant: Variant):
    """Power-mean deviation bound under P-convexity of |f''|^q.

    With S = (m_a^q + m_b^q)^(1/q), the stated family is
    (b-a)^2/48 * (8 lam^3 - 3 lam + 1) * S (small lam) and
    (b-a)^2/48 * (3 lam - 1) * S (large lam); the derived family replaces
    /48 by /24 and reduces to :func:`bound_theorem5` at q = 1.  Exact
    inputs give a Fraction at q = 1 and an mpf otherwise.  It is the
    combination of its lam factor and its power sum, which campaigns cache
    per panel and combine themselves.
    """
    _check_q(q)
    _check_variant(variant)
    return _combine(_coefficient(domain, lam), _power_sum(e.m_a, e.m_b, q), variant)


def bound_theorem6_exact(domain, lam, q, m_a, m_b, variant: Variant) -> Fraction:
    """Exact rational power-mean bound; only q = 1 keeps the value rational."""
    if Fraction(q) != 1:
        raise ValueError("exact path requires q = 1")
    e = EndpointData(Fraction(m_a), Fraction(m_b))
    return bound_theorem6(_exact(domain), Fraction(lam), 1, e, variant)


def bound_theorem6_mp(
    domain, lam, q, m_a, m_b, variant: Variant, dps: int = 50
) -> mpmath.mpf:
    """High-precision power-mean bound for irrational q-th roots."""
    e = EndpointData(Fraction(m_a), Fraction(m_b))
    with mpmath.workdps(dps):
        bound = bound_theorem6(_exact(domain), Fraction(lam), Fraction(q), e, variant)
        return bound if isinstance(bound, mpmath.mpf) else to_mpf(bound)


def bound_corollary(rule: Rule, domain: Interval, q, e: EndpointData, variant: Variant):
    """Rule shortcut of the power-mean bound at lam = 0, 1 or 1/3, taken in
    the number type of the endpoints.

    Stated coefficients: midpoint (b-a)^2/48, trapezoid (b-a)^2/24,
    Simpson (b-a)^2/162.
    """
    lam = RULE_LAMBDA_EXACT[rule]
    if type(domain.lo) is not Fraction:
        lam = float(lam)
    return bound_theorem6(domain, lam, q, e, variant)


def bound_corollary_exact(rule, domain, q, m_a, m_b, variant: Variant) -> Fraction:
    return bound_theorem6_exact(domain, RULE_LAMBDA_EXACT[rule], q, m_a, m_b, variant)


def bound_bounded_m(
    rule: Rule,
    domain: Interval,
    q,
    env: DerivativeEnvelope,
    form: MForm,
    variant: Variant = "stated",
):
    """Uniform-M forms: with |f''| <= M the power sum collapses to M 2^(1/q).

    ``with_q``  keeps the 2^(1/q) factor: M (b-a)^2 / C * 2^(1/q) with the
    stated C in {48, 24, 162} per rule (halved for the derived variant).
    ``relaxed`` applies 2^(1/q) <= 2: M (b-a)^2 / {24, 12, 81}.
    """
    if env.sup_abs_d2 is None:
        raise ValueError("bound_bounded_m requires env.sup_abs_d2 (M)")
    _check_variant(variant)
    denom = _RULE_DENOMINATOR[rule]
    if variant == "derived":
        denom //= 2
    m = env.sup_abs_d2
    if form == "relaxed":
        return m * domain.width**2 / denom * 2
    _check_q(q)
    return _times(m * domain.width**2 / denom, _root_of_two(type(m), q, mpmath.mp.prec))


@functools.lru_cache(maxsize=64)
def _root_of_two(kind, q, prec: int):
    """2^(1/q), the power sum of two ones of number type ``kind``.  An mpf
    root is taken at the working precision, so ``prec`` (in bits) is part
    of the cache key."""
    one = kind(1)
    return _power_sum(one, one, q)


def bound_bounded_m_exact(
    rule, domain, q, sup_abs_d2, form: MForm, variant: Variant = "stated"
) -> Fraction:
    """Exact path for the uniform-M forms (q = 1 or the relaxed form)."""
    if form != "relaxed" and Fraction(q) != 1:
        raise ValueError("exact path requires q = 1 or the relaxed form")
    env = DerivativeEnvelope(sup_abs_d2=Fraction(sup_abs_d2))
    return bound_bounded_m(rule, _exact(domain), 1, env, form, variant)


def bound_classical(rule: Rule, domain: Interval, env: DerivativeEnvelope, p: int = 4):
    """Classical comparison bounds.

    trapezoid: two-sided enclosure [k/3 ((b-a)/2)^2, K/3 ((b-a)/2)^2] of the
    trapezoid gap, from k <= f'' <= K.
    midpoint: two-sided enclosure [gamma (b-a)^2/24, Gamma (b-a)^2/24] of the
    midpoint gap.
    simpson: one-sided sup|f''''| (b-a)^p / 2880 with p in {2, 4}.  The
    classical inequality carries p = 4 (the default); p = 2 evaluates the
    quadratic-exponent variant so dimension analysis can flag it.
    """
    w = domain.width
    if rule == "trapezoid":
        if env.lower_d2 is None or env.upper_d2 is None:
            raise ValueError("trapezoid enclosure requires lower_d2 and upper_d2")
        half_sq = (w / 2) ** 2
        return (env.lower_d2 / 3 * half_sq, env.upper_d2 / 3 * half_sq)
    if rule == "midpoint":
        if env.lower_d2 is None or env.upper_d2 is None:
            raise ValueError("midpoint enclosure requires lower_d2 and upper_d2")
        return (env.lower_d2 * w**2 / 24, env.upper_d2 * w**2 / 24)
    if rule == "simpson":
        if env.sup_abs_d4 is None:
            raise ValueError("simpson bound requires sup_abs_d4")
        if p not in (2, 4):
            raise ValueError("p must be 2 or 4")
        return env.sup_abs_d4 * w**p / 2880
    raise ValueError(f"unknown rule {rule!r}")


def bound_classical_exact(
    rule, domain, *, lower_d2=None, upper_d2=None, sup_abs_d4=None, p: int = 4
):
    """Exact rational version of :func:`bound_classical`."""
    env = DerivativeEnvelope(
        lower_d2=_exact_or_none(lower_d2),
        upper_d2=_exact_or_none(upper_d2),
        sup_abs_d4=_exact_or_none(sup_abs_d4),
    )
    return bound_classical(rule, _exact(domain), env, p)

