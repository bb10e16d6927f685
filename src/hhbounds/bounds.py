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
rational value at q = 1.  At any other q the power sum
(A^q + B^q)^(1/q) is irrational in general, and its bound is a
:class:`_Root`, a rational multiple of the root that encloses itself
between integers and rounds correctly.  For a q whose denominator is 1
or 2 (every value of the default grid) the enclosure narrows to any
number of bits; for any other q it is the point of the root's 50-digit
mpf value, whatever the caller's working precision.  The ``_exact`` and
``_mp`` names convert their arguments and call the same formula.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

import mpmath
from mpmath.libmp import from_rational, round_nearest, to_rational

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

    For other q the root is taken in float, or, for Fraction inputs, kept
    as a :class:`_Root`: exact when q's denominator is 1 or 2 (and its
    numerator at most :data:`_MAX_ROOT_ORDER`), and otherwise the point of
    its value taken in mpf at 50 digits.
    """
    if q == 1:
        return m_a + m_b
    if type(m_a) is Fraction:
        u, v = Fraction(q).as_integer_ratio()
        if v <= 2 and u <= _MAX_ROOT_ORDER:
            return _Root(1, 1, _PowerRoot(m_a, m_b, u, v))
        with mpmath.workdps(50):
            qm = to_mpf(q)
            root = (to_mpf(m_a) ** qm + to_mpf(m_b) ** qm) ** (1 / qm)
        n, d = to_rational(root._mpf_)
        # (P^1 + 0^1)^(1/1) is P: a point enclosure of the 50-digit root
        return _Root(1, 1, _PowerRoot(Fraction(int(n), int(d)), Fraction(0), 1, 1))
    return (m_a**q + m_b**q) ** (1.0 / q)


def _iroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for ints x >= 0 and n >= 1.

    Newton's method on ints, started at or above the root: from the root
    of x's top half, plus one and scaled back, or from 2^ceil(bits/n) for
    a short x.  Each step from above the root stays at or above the floor
    and decreases, so the first step that does not decrease ends it.
    """
    if n == 1 or x < 2:
        return x
    if n == 2:
        return math.isqrt(x)
    bits = x.bit_length()
    s = bits // (2 * n)
    y = (_iroot(x >> (n * s), n) + 1) << s if s else 1 << -(-bits // n)
    while True:
        z = ((n - 1) * y + x // y ** (n - 1)) // n
        if z >= y:
            return y
        y = z


def _exact_root(x: Fraction, n: int) -> Optional[Fraction]:
    """x^(1/n) where it is rational, else None (x >= 0)."""
    num, den = x.as_integer_ratio()
    a, b = _iroot(num, n), _iroot(den, n)
    return Fraction(a, b) if a**n == num and b**n == den else None


# The relative bits of a root's first enclosure, and the bits past which
# a root that has not rounded yet is tested for being rational: only a
# rational root can put a bound or a margin on a rounding boundary.
_ROOT_BITS = 96
_RATIONAL_BITS = 4 * _ROOT_BITS
# The largest numerator u of q = u/v that takes an exact root (every value
# of the default grid has u <= 21): an enclosure raises (bits)-bit ints to
# the u-th power, so a q such as 1e9 takes the 50-digit root.
_MAX_ROOT_ORDER = 64


class _PowerRoot:
    """(A^q + B^q)^(1/q) for Fractions A, B >= 0 and q = u/v with v 1 or
    2, as integer enclosures: :meth:`enclosure` gives ints lo <= hi and a
    denominator d with lo/d <= root <= hi/d.  A dyadic enclosure at k
    fractional bits (k even where v = 2) comes from integer roots: with
    a = floor(A 2^k) and b = floor(B 2^k), the v-th roots of a^u and b^u,
    floored, sum to at most S 2^(uk/v), S = A^(u/v) + B^(u/v), and those of
    (a + 1)^u and (b + 1)^u, plus one each, to at least it; lo and hi - 1
    are the floor u-th roots of the two sums to the v-th power.  As the
    q-norm is a norm, hi - lo is at most 6.

    The narrowest enclosure taken is kept.  A rational root (one of A, B
    is zero, or the test at :data:`_RATIONAL_BITS` finds it) is its own
    enclosure, lo = hi.
    """

    __slots__ = ("a", "b", "u", "v", "_tested", "_best")

    def __init__(self, a: Fraction, b: Fraction, u: int, v: int):
        self.a, self.b, self.u, self.v = a, b, u, v
        self._tested, self._best = False, (0, None)  # (bits, enclosure)
        if a == 0 or b == 0:
            self._set_point(max(a, b))

    def _set_point(self, r: Fraction) -> None:
        n, d = r.as_integer_ratio()
        self._best = (math.inf, (n, n, d))

    def enclosure(self, bits: int) -> tuple[int, int, int]:
        """(lo, hi, d): lo/d <= root <= hi/d, with hi - lo at most 6 and
        lo at least 2^bits, or lo = hi."""
        have, enc = self._best
        if have >= bits:
            return enc
        if bits >= _RATIONAL_BITS and not self._tested:
            self._tested = True
            r = self._rational()
            if r is not None:
                self._set_point(r)
                return self._best[1]
        (an, ad), (bn, bd), u, v = self.a.as_integer_ratio(), self.b.as_integer_ratio(), self.u, self.v
        # log2 of the root is within 1 of that of max(A, B) or above it
        k = max(0, bits + 2 - max(an.bit_length() - ad.bit_length(),
                                  bn.bit_length() - bd.bit_length()))
        k += k % v
        a, b = (an << k) // ad, (bn << k) // bd
        low = _iroot(a**u, v) + _iroot(b**u, v)
        high = _iroot((a + 1) ** u, v) + _iroot((b + 1) ** u, v) + 2
        enc = (_iroot(low**v, u), _iroot(high**v, u) + 1, 1 << k)
        self._best = (bits, enc)
        return enc

    def _rational(self) -> Optional[Fraction]:
        """The root where it is rational, else None."""
        a, b, u = self.a, self.b, self.u
        if self.v == 1:
            return _exact_root(a**u + b**u, u)
        # S^2 = A^u + B^u + 2 (AB)^(u/2) is rational only where (AB)^u is a square
        t = _exact_root((a * b) ** u, 2)
        return None if t is None else _exact_root(a**u + b**u + 2 * t, u)


class _Root:
    """c (A^q + B^q)^(1/q) for a rational c = cn/cd and a shared
    :class:`_PowerRoot`: a bound that is exact, though irrational (or, for
    a q whose denominator is above 2, c times the root's 50-digit value).
    It is multiplied and divided by rationals, and rounded correctly by
    :meth:`rounded`, ``float`` and ``mpmath.mpf``."""

    __slots__ = ("cn", "cd", "root")

    def __init__(self, cn: int, cd: int, root: _PowerRoot):
        self.cn, self.cd, self.root = cn, cd, root

    def __mul__(self, c):
        n, d = c.as_integer_ratio()
        return _Root(self.cn * n, self.cd * d, self.root)

    __rmul__ = __mul__

    def __truediv__(self, c):
        n, d = c.as_integer_ratio()
        return _Root(self.cn * d, self.cd * n, self.root)

    def rounded(self, ln: int = 0, ld: int = 1, div=operator.truediv) -> tuple:
        """(div(self), div(self - ln/ld)) for a ``div`` that rounds a
        quotient of ints, by default to the nearest float: each is taken at
        both ends of the root's enclosure, which doubles its bits until
        the two ends round alike (Ziv's loop)."""
        cn, cd, bits = self.cn, self.cd, _ROOT_BITS
        while True:
            lo, hi, d = self.root.enclosure(bits)
            d *= cd
            n_lo, n_hi = cn * lo, cn * hi
            value = div(n_lo, d)
            if div(n_hi, d) == value:
                m_lo, d_m = n_lo * ld - ln * d, d * ld
                margin = div(m_lo, d_m)
                if div(m_lo + (n_hi - n_lo) * ld, d_m) == margin:
                    return value, margin
            bits *= 2

    def __float__(self) -> float:
        return self.rounded()[0]

    @property
    def _mpf_(self):
        """The value as an mpf at the working precision, for
        ``mpmath.mpf``."""
        prec = mpmath.mp.prec
        return self.rounded(div=lambda n, d: from_rational(n, d, prec, round_nearest))[0]


def _coefficient(domain, lam):
    """(b-a)^2 * moment(lam), the lam factor of theorems 5 and 6."""
    return domain.width**2 * kernel.weighted_moment(lam)


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
    inputs give a Fraction at q = 1 and a root (:class:`_Root`) otherwise.
    It is the product of its lam factor and its power sum, halved for the
    stated constant; campaigns cache both per panel and multiply them
    themselves.
    """
    _check_q(q)
    _check_variant(variant)
    bound = _coefficient(domain, lam) * _power_sum(e.m_a, e.m_b, q)
    return bound if variant == "derived" else bound / 2


def bound_theorem6_exact(domain, lam, q, m_a, m_b, variant: Variant) -> Fraction:
    """Exact rational power-mean bound; only q = 1 keeps the value rational."""
    if Fraction(q) != 1:
        raise ValueError("exact path requires q = 1")
    e = EndpointData(Fraction(m_a), Fraction(m_b))
    return bound_theorem6(_exact(domain), Fraction(lam), 1, e, variant)


def bound_theorem6_mp(domain, lam, q, m_a, m_b, variant: Variant) -> mpmath.mpf:
    """The power-mean bound as an mpf at 50 digits: the exact bound (with
    the 50-digit root, for a q whose denominator is above 2) correctly
    rounded."""
    e = EndpointData(Fraction(m_a), Fraction(m_b))
    with mpmath.workdps(50):
        bound = bound_theorem6(_exact(domain), Fraction(lam), Fraction(q), e, variant)
        return to_mpf(bound) if type(bound) is Fraction else mpmath.mpf(bound)


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
    return m * domain.width**2 / denom * _root_of_two(type(m), q)


@functools.lru_cache(maxsize=64)
def _root_of_two(kind, q):
    """2^(1/q), the power sum of two ones of number type ``kind``."""
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

