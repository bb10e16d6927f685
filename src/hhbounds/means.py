"""Special means and the power-mean inequality checks for f(x) = x^n.

The generalized log-mean satisfies L_n^n(a, b) = average of x^n over [a, b],
which turns the rule bounds at lam in {0, 1, 1/3} into closed-form
inequalities between the arithmetic mean, the generalized log-mean, and
powers thereof.  Those are checked as claims (never asserted blindly): the
stated constant family is suspect at q > 1 and the checker reproduces its
counterexamples in exact arithmetic.  A check is the corollary rule bound
for x^n, evaluated through the same functional and bound formulas and the
same status classifier as the campaign claims.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from . import bounds, functionals
from .corpus import Interval
from .records import EQ_TOL, TOL, VerificationRecord, classify

__all__ = [
    "mean_arithmetic",
    "mean_logarithmic",
    "mean_generalized_log",
    "generalized_log_pow_exact",
    "check_proposition",
]

# Propositions 1, 2 and 3 are the midpoint, trapezoid and Simpson rules.
_PROP_RULES = ("midpoint", "trapezoid", "simpson")


def _check_positive_pair(alpha: float, beta: float) -> None:
    if alpha <= 0 or beta <= 0:
        raise ValueError("mean arguments must be positive")


def mean_arithmetic(alpha: float, beta: float) -> float:
    _check_positive_pair(alpha, beta)
    return (alpha + beta) / 2.0


def mean_logarithmic(alpha: float, beta: float) -> float:
    _check_positive_pair(alpha, beta)
    if alpha == beta:
        raise ValueError("logarithmic mean requires alpha != beta")
    lo, hi = min(alpha, beta), max(alpha, beta)
    if hi < 2 * lo:
        # log(hi) - log(lo) cancels here (to 0 for neighbouring floats);
        # log1p of the relative gap, below 1, keeps its digits.
        return (hi - lo) / math.log1p((hi - lo) / lo)
    # The relative gap may overflow (or lo be subnormal); no cancellation.
    return (hi - lo) / (math.log(hi) - math.log(lo))


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n in (-1, 0):
        raise ValueError("order n must be an integer outside {-1, 0}")


def mean_generalized_log(alpha: float, beta: float, n: int) -> float:
    """[(beta^(n+1) - alpha^(n+1)) / ((n+1)(beta - alpha))]^(1/n)."""
    _check_positive_pair(alpha, beta)
    _check_order(n)
    if alpha == beta:
        raise ValueError("generalized log-mean requires alpha != beta")
    base = (beta ** (n + 1) - alpha ** (n + 1)) / ((n + 1) * (beta - alpha))
    return base ** (1.0 / n)


def generalized_log_pow_exact(a, b, n: int) -> Fraction:
    """L_n^n(a, b) in exact rational arithmetic: the average of x^n."""
    _check_order(n)
    af, bf = Fraction(a), Fraction(b)
    if af == bf:
        raise ValueError("generalized log-mean requires a != b")
    if (af <= 0 or bf <= 0) and n < 0:
        raise ValueError("negative orders require positive arguments")
    return (bf ** (n + 1) - af ** (n + 1)) / ((n + 1) * (bf - af))


def check_proposition(
    idx: int,
    a,
    b,
    n: int,
    q: float = 1.0,
    variant: str = "stated",
) -> VerificationRecord:
    """Check one special-means inequality for f(x) = x^n on [a, b].

    It is the corollary bound of the proposition's rule (1 midpoint,
    2 trapezoid, 3 Simpson) for x^n, in exact rationals.  lhs = |F(lam)|
    with avg(x^n) = L_n^n(a, b): |L_n^n - A^n|, |A(a^n, b^n) - L_n^n| and
    |A(a^n, b^n)/3 + 2 A^n/3 - L_n^n|.  rhs: the power-mean bound with
    |f''(x)| = |n(n-1)| x^(n-2), i.e. |n(n-1)| (b-a)^2 / C *
    (a^(q(n-2)) + b^(q(n-2)))^(1/q) with C = 48, 24, 162 (stated) or 24,
    12, 81 (derived).  The rhs is rational at q = 1, an exact root for a
    q whose denominator is 2 or 1 (rounded correctly), and evaluated at
    50 decimal digits otherwise, so a reported violation never rests on
    double rounding.  The status band is :data:`~hhbounds.records.TOL`
    and :data:`~hhbounds.records.EQ_TOL`, as in a campaign.  The guard
    |n(n-1)| >= 3 is not enforced here; callers that treat it as a
    hypothesis filter on n do so themselves.
    """
    if idx not in (1, 2, 3):
        raise ValueError("proposition index must be 1, 2 or 3")
    if variant not in ("stated", "derived"):
        raise ValueError(f"variant must be 'stated' or 'derived', got {variant!r}")
    _check_order(n)
    if not q >= 1.0:
        raise ValueError("q must be >= 1")
    af, bf = Fraction(a), Fraction(b)
    if not 0 < af < bf:
        raise ValueError("requires 0 < a < b")

    rule = _PROP_RULES[idx - 1]
    samples = (
        af**n,
        ((af + bf) / 2) ** n,
        bf**n,
        generalized_log_pow_exact(af, bf, n),
    )
    k = abs(n * (n - 1))
    ends = bounds.EndpointData(k * af ** (n - 2), k * bf ** (n - 2))
    with mpmath.workdps(50):
        status, lhs, rhs, margin = classify(
            abs(functionals._lambda_value(samples, bounds.RULE_LAMBDA_EXACT[rule])),
            bounds.bound_corollary(rule, Interval(af, bf), q, ends, variant),
            TOL,
            EQ_TOL,
        )

    fid = f"poly{n}" if 2 <= n <= 5 else f"x^{n}"
    return VerificationRecord(
        claim=f"prop{idx}-{variant}",
        function=fid,
        a=float(af),
        b=float(bf),
        lam=float(bounds.RULE_LAMBDA_EXACT[rule]),
        q=float(q),
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        status=status,
        exact=True,
    )
