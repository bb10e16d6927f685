"""Claims ledger, verification campaigns, and counterexample search.

Every inequality the package evaluates is registered as a claim with a
provenance tag:

* ``proof-backed`` -- the constant follows from the kernel-moment chain (or
  is a classical result); a violation is an implementation bug.
* ``stated-only``  -- the constant is taken at face value and tested as a
  falsifiable hypothesis.  The power-mean family whose coefficients are half
  of the proof-backed ones lives here, together with the quadratic-exponent
  variant of the fourth-derivative Simpson bound.

A campaign sweeps (claim, function, interval, lambda, q) combinations,
records one :class:`VerificationRecord` per combination, and aggregates a
per-claim summary.  It evaluates one block at a time: a claim on one
(function, interval) over the whole lambda x q grid.  A config repeats no
claim, function, interval or grid value, so the canonical record order is
plain nested loops: claims and functions by id, intervals sorted, and each
block lambda-major over the sorted grids.  :class:`CampaignStream` yields
the blocks in that order and summarizes them as they pass; no record is
sorted, and a writer holds one block of records at a time.  The
hypothesis the ledger states is checked once per q.  A panel holds the
values of one (function, interval) in floats, in floats with a refined
average, or in exact rationals.  Every claim is evaluated a lam row at a
time by one of two row functions, chosen once per block; a claim without
lam or q is a 1x1 block.  The lambda-family claims (theorems 5 and 6,
their corollaries and the special-means propositions) have bounds that
factor into a value per lam and one per q, so their row function reads
|F(lam)|, the lam factor (b-a)^2 moment(lam) and the power sums
(|f''(a)|^q + |f''(b)|^q)^(1/q) from the panel's caches, each computed
once by the formulas of :mod:`bounds` and shared by every claim that reads
it; an exact lam and its exact moment are constants of the run.  The side
row of every other claim holds each half of its one cell: an enclosure has
two, and the block keeps the half with the smaller float margin.  The
float row comes first; each cell that is not a comfortable 'holds' is
re-derived by the same row function on the exact panel (polynomials),
where a q-th root is a root of :mod:`bounds`, or on the refined one, and
:func:`~hhbounds.records.classify_row` decides every status.  The
propositions are the corollary rows of their rule, evaluated on the exact
panel of x^n.  An oracle failure anywhere, confirmation
included, yields an 'undefined' record, and so does an f, f'' or f''''
that raises where it is sampled.  Every per-run value (a panel, an envelope, a P-check) is
built once; one whose build failed is not built again.  Runs are
deterministic for a fixed config.  A counterexample search screens every
trial (:func:`_screen`) on the float row of the same row function, and
builds no record, sampled check, envelope or exact panel for one that
cannot be a hit: one where every half holds with a positive margin, or
where a polynomial's margin less :func:`_margin_error` is >= -TOL.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterator, Mapping, Optional

import numpy as np

from . import bounds, functionals, kernel, oracle
from .corpus import (
    GridSpec,
    Interval,
    TestFunction,
    _REGISTRY,
    check_p_convex,
)
from .oracle import OracleError, _sample, _terms_at, _value_at
from .records import EQ_TOL, STATUSES, TOL, VerificationRecord, classify_row

__all__ = [
    "BoundClaim",
    "CampaignConfig",
    "CampaignResult",
    "CampaignStream",
    "CounterexampleSearch",
    "ledger_standard",
    "claim_ids",
    "get_claim",
    "run_campaign",
    "find_counterexample",
    "resolve_claims",
    "resolve_functions",
    "sample_intervals",
]

PROOF_BACKED = "proof-backed"
STATED_ONLY = "stated-only"

DEFAULT_LAMBDA_GRID = tuple(i / 20 for i in range(21))
DEFAULT_Q_GRID = (1.0, 1.5, 2.0, 4.0, 10.0)
ORACLE_TOL = 1e-12  # the absolute tolerance of a panel's average


@dataclass(frozen=True)
class BoundClaim:
    """One named inequality, lhs <= rhs, under a hypothesis."""

    id: str
    description: str
    provenance: str
    hypothesis: str
    family: str
    rule: Optional[str] = None
    variant: Optional[str] = None
    form: Optional[str] = None
    p: Optional[int] = None
    uses_lambda: bool = False
    fixed_lambda: Optional[float] = None
    uses_q: bool = False


def ledger_standard() -> tuple[BoundClaim, ...]:
    """The full claims ledger; power-mean family claims appear twice
    (stated and derived constants).  The corollaries and propositions fix
    lam at their rule's value from :data:`bounds.RULE_LAMBDA_EXACT`;
    propositions 1, 2 and 3 are the midpoint, trapezoid and Simpson rules.
    thm5 is the derived power-mean bound at q = 1."""
    variants = (("stated", STATED_ONLY), ("derived", PROOF_BACKED))
    rule_lam = {r: float(lam) for r, lam in bounds.RULE_LAMBDA_EXACT.items()}
    d2q = "check_p_convex(|d2|^q)"
    claims = [
        BoundClaim(
            "thm5", "endpoint-sum deviation bound for P-convex |f''|", PROOF_BACKED,
            "check_p_convex(|d2|)", "thm5", variant="derived", uses_lambda=True,
        )
    ]
    claims += [
        BoundClaim(
            f"thm6-{v}", f"power-mean deviation bound ({v} constant)", prov, d2q,
            "thm6", variant=v, uses_lambda=True, uses_q=True,
        )
        for v, prov in variants
    ]
    for num, rule in zip((1, 2, 3), rule_lam):
        claims += [
            BoundClaim(
                f"cor{num}-{v}", f"{rule} power-mean bound ({v} constant)", prov, d2q,
                "cor", rule=rule, variant=v, fixed_lambda=rule_lam[rule], uses_q=True,
            )
            for v, prov in variants
        ]
    for num, rule in zip((4, 5, 8), rule_lam):
        claims += [
            BoundClaim(
                f"cor{num}-{v}", f"{rule} uniform-M bound with 2^(1/q) ({v})", prov, d2q,
                "corm", rule=rule, variant=v, form="with_q",
                fixed_lambda=rule_lam[rule], uses_q=True,
            )
            for v, prov in variants
        ]
        # The relaxed forms (2^(1/q) <= 2) coincide with the sharp kernel
        # bounds M (b-a)^2 * int|k|, hence proof-backed.
        claims.append(
            BoundClaim(
                f"cor{num}-relaxed", f"{rule} uniform-M bound, q-free form",
                PROOF_BACKED, "check_p_convex(|d2|)", "corm", rule=rule,
                variant="stated", form="relaxed", fixed_lambda=rule_lam[rule],
            )
        )
    claims += [
        BoundClaim(
            "hh", "average-value enclosure for convex f", PROOF_BACKED,
            "f convex on [a, b]", "hh",
        ),
        BoundClaim(
            "hh-p", "doubled average-value enclosure for P-functions", PROOF_BACKED,
            "check_p_convex(f)", "hh-p",
        ),
        BoundClaim(
            "mid-envelope", "two-sided midpoint-gap enclosure from f'' range",
            PROOF_BACKED, "f twice differentiable", "envelope", rule="midpoint",
        ),
        BoundClaim(
            "trap-envelope", "two-sided trapezoid-gap enclosure from f'' range",
            PROOF_BACKED, "f twice differentiable", "envelope", rule="trapezoid",
        ),
        BoundClaim(
            "simpson-4th-p4",
            "classical fourth-derivative Simpson bound (quartic width)", PROOF_BACKED,
            "f has d4", "simpson4", rule="simpson", p=4,
        ),
        BoundClaim(
            "simpson-4th-p2", "quadratic-width variant of the Simpson bound",
            STATED_ONLY, "f has d4", "simpson4", rule="simpson", p=2,
        ),
    ]
    for num, rule in zip((1, 2, 3), rule_lam):
        claims += [
            BoundClaim(
                f"prop{num}-{v}", f"special-means inequality {num} ({v} constant)",
                prov, "f = x^n, |n(n-1)| >= 3, 0 < a < b", "prop", rule=rule,
                variant=v, fixed_lambda=rule_lam[rule], uses_q=True,
            )
            for v, prov in variants
        ]
    return tuple(claims)


_LEDGER = {c.id: c for c in ledger_standard()}


def claim_ids() -> tuple[str, ...]:
    return tuple(_LEDGER)


def get_claim(cid: str) -> BoundClaim:
    try:
        return _LEDGER[cid]
    except KeyError:
        raise KeyError(
            f"unknown claim id {cid!r}; known ids: {', '.join(_LEDGER)}"
        ) from None


# ---------------------------------------------------------------------------
# Campaign configuration and context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a verification run byte for byte.

    The status band (:data:`~hhbounds.records.TOL`,
    :data:`~hhbounds.records.EQ_TOL`), the oracle tolerance
    :data:`ORACLE_TOL` and the P-checks' grid (the default
    :class:`~hhbounds.corpus.GridSpec`) are fixed; :meth:`as_dict` echoes
    them beside the fields."""

    claims: tuple[str, ...] = ()
    functions: tuple[str, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ((1.0, 2.0),)
    trials: int = 0
    interval_range: tuple[float, float] = (0.1, 10.0)
    min_width: float = 0.05
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lambda_grid or not self.q_grid:
            raise ValueError("lambda and q grids must be nonempty")
        if not all(0 <= lam <= 1 for lam in self.lambda_grid):
            raise ValueError("lambda grid values must lie in [0, 1]")
        if not all(q >= 1 for q in self.q_grid):
            raise ValueError("q grid values must be >= 1")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        lo, hi = self.interval_range  # hi - lo is finite only where lo and hi are
        if not (lo < hi and math.isfinite(hi - lo) and 0 < self.min_width <= hi - lo):
            raise ValueError("interval_range must be finite, lo < hi, min_width in (0, hi - lo]")
        intervals = [tuple(map(float, iv)) for iv in self.intervals]
        for iv in intervals:
            if len(iv) != 2 or not -math.inf < iv[0] < iv[1] < math.inf:
                raise ValueError(f"each interval must be a finite pair a < b, got {list(iv)}")
        # Floats compare with ==, so 0.0 and -0.0 are one value.  With no
        # value repeated, no two records share a key of the canonical order.
        for kind, values in (
            ("claim id", self.claims),
            ("function id", self.functions),
            ("interval", intervals),
            ("lambda value", self.lambda_grid),
            ("q value", self.q_grid),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"each {kind} may be given once, got {list(values)}")

    def as_dict(self) -> dict:
        grid = GridSpec()
        return {
            "claims": list(self.claims),
            "functions": list(self.functions),
            "intervals": [list(iv) for iv in self.intervals],
            "trials": self.trials,
            "interval_range": list(self.interval_range),
            "min_width": self.min_width,
            "lambda_grid": list(self.lambda_grid),
            "q_grid": list(self.q_grid),
            "seed": self.seed,
            "tol": TOL,
            "eq_tol": EQ_TOL,
            "oracle_tol": ORACLE_TOL,
            "pconvex_grid": [grid.nx, grid.ny, grid.nlam],
        }


def sample_intervals(config: CampaignConfig) -> list[tuple[float, float]]:
    """Seeded random intervals: lo <= a < b <= hi with width >= min_width.

    Drawn independently of the grids so enlarging a grid never changes the
    sampled intervals.
    """
    rng = random.Random(config.seed)
    return [_random_interval(rng, config) for _ in range(config.trials)]


def _random_interval(rng: random.Random, config: CampaignConfig) -> tuple[float, float]:
    """(a, b) from two uniform draws: lo <= a < b <= hi, b - a >= min_width."""
    lo, hi = config.interval_range
    a = rng.uniform(lo, hi - config.min_width)
    return a, rng.uniform(a + config.min_width, hi)


class _Panel:
    """One (function, interval) in one number type, and the statistics the
    row functions read from it.

    ``kind`` is 'float', 'refined' (floats, with the average re-integrated
    by the oracle at a tenth of the tolerance, bypassing any closed form)
    or 'exact' (Fractions; polynomials only).  ``domain`` has endpoints of
    that type and ``samples`` is (f(a), f(m), f(b), avg(f)).  The endpoint
    data |f''(a)|, |f''(b)| and the sampled envelope are computed on first
    use, since only some claim families read them.

    The lambda-family claims are evaluated a lam row at a time: |F(lam)|
    against the bound at every q of the row.  The bounds factor into one
    value per lam and one per q, so the panel serves whole rows from its
    caches, each value computed once by the formulas of :mod:`bounds` and
    :mod:`functionals` and shared by every claim that reads it: per lam,
    |F(lam)| and the lam factor (b-a)^2 moment(lam); per q, the power sum
    (|f''(a)|^q + |f''(b)|^q)^(1/q).  A lam is keyed by its float, or on an
    exact panel by the name of the rule whose exact lam a claim fixes; its
    exact value and exact moment are per-run constants of the context.  On
    an exact panel a power sum with q != 1 is a root
    (:class:`bounds._Root`).
    """

    __slots__ = (
        "_ctx", "_fn", "_interval", "_ends", "_env", "_memo", "_line", "exact",
        "domain", "samples",
    )

    def __init__(self, ctx: "_Context", fn: TestFunction, domain: Interval, kind: str):
        # a weak reference, so that a run's caches are freed with its
        # context rather than kept in a cycle until a full collection
        self._ctx, self._fn, self._interval = weakref.proxy(ctx), fn, domain
        self._ends = self._env = self._line = None
        self._memo = defaultdict(dict)  # statistic -> {lam or q: value}
        self.exact = kind == "exact"
        if self.exact:
            self.domain = bounds._exact(domain)
            self.samples = functionals._samples_exact(fn, self.domain)
            return
        self.domain = domain
        if kind == "refined":
            avg = oracle.integrate(fn.f, domain, ORACLE_TOL / 10.0).value / domain.width
        else:
            avg = functionals.average_value(fn, domain, ORACLE_TOL)
        self.samples = functionals._samples(fn, domain, avg)

    @property
    def ends(self) -> bounds.EndpointData:
        if self._ends is None:
            lo, hi = self.domain.lo, self.domain.hi
            if self.exact:
                d2 = self._fn._d2_terms
                m_a, m_b = _terms_at(d2, lo), _terms_at(d2, hi)
            else:
                m_a, m_b = _value_at(self._fn.d2, lo), _value_at(self._fn.d2, hi)
            self._ends = bounds.EndpointData(abs(m_a), abs(m_b))
        return self._ends

    @property
    def env(self) -> bounds.DerivativeEnvelope:
        if self._env is None:
            env = self._ctx.envelope(self._fn, self._interval)
            if self.exact:
                d4 = env.sup_abs_d4
                env = bounds.DerivativeEnvelope(
                    Fraction(env.sup_abs_d2),
                    Fraction(env.lower_d2),
                    Fraction(env.upper_d2),
                    None if d4 is None else Fraction(d4),
                )
            self._env = env
        return self._env

    def lam(self, lam):
        """The lam of key ``lam`` in the panel's number type."""
        return self._ctx.exact_lambda(lam)[0] if self.exact else lam

    def lhs(self, lam):
        """|F(lam)|."""
        memo = self._memo["lhs"]
        v = memo.get(lam)
        if v is None:
            if not self.exact:
                v = memo[lam] = abs(functionals._lambda_value(self.samples, lam))
                return v
            if self._line is None:
                # F is affine in lam: F(0) is the midpoint gap and F(1) minus
                # the trapezoid gap, so F(lam) = F(0) + lam (F(1) - F(0))
                f0 = functionals._gap_left(self.samples)
                self._line = f0, -functionals._gap_right(self.samples) - f0
            f0, slope = self._line
            v = memo[lam] = abs(f0 + self.lam(lam) * slope)
        return v

    def theorem6_row(self, lam, qs, variant: str) -> list:
        """:func:`bounds.bound_theorem6` at lam for each q of ``qs`` (q None
        taken as 1, the power sum of theorem 5), from the cached lam factor c
        and power sums s: c * s, halved for the stated constant.  On an
        exact panel a bound is a Fraction where s is one (q = 1) and c times
        the root s otherwise."""
        sums = self._memo["power_sum"]
        for q in qs:
            if q not in sums:
                e = self.ends
                sums[q] = bounds._power_sum(e.m_a, e.m_b, 1 if q is None else q)
        factors = self._memo["lam_factor"]
        c = factors.get(lam)
        if c is None:
            if self.exact:  # the exact moment is a constant of the run
                c = self.domain.width**2 * self._ctx.exact_lambda(lam)[1]
            else:
                c = bounds._coefficient(self.domain, lam)
            factors[lam] = c
        if variant == "derived":
            return [c * sums[q] for q in qs]
        return [c * sums[q] / 2 for q in qs]


def _envelope(fn: TestFunction, domain: Interval) -> bounds.DerivativeEnvelope:
    """The sampled envelope of f'' (and the sup of |f''''|, where f has a
    fourth derivative) at 257 equally spaced points of ``domain``."""
    xs = np.linspace(domain.lo, domain.hi, 257)
    lo, hi = _range(fn, "d2", xs)
    sup_d4 = None
    if fn.d4 is not None:
        sup_d4 = max(map(abs, _range(fn, "d4", xs)))
    return bounds.DerivativeEnvelope(max(abs(lo), abs(hi)), lo, hi, sup_d4)


def _range(fn: TestFunction, name: str, xs) -> tuple[float, float]:
    """The least and greatest samples of f's derivative ``name``; NaN and
    +-inf carry through min and max, so they are finite where all are."""
    v = _sample(getattr(fn, name), xs)
    lo, hi = float(v.min()), float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OracleError(f"{name} of {fn.id} is non-finite or raised")
    return lo, hi


def _endpoint_envelope(fn: TestFunction, domain: Interval) -> SimpleNamespace:
    """The fields of :func:`_envelope` from f'' and f'''' at a and b, each
    moved inward by the most its array evaluation there may differ from
    this scalar one (2 :func:`_horner_bound` for a polynomial, else 1e-9
    relative) to lie inside the sampled one; sups are clamped at 0, and the
    f'' range may be inverted, as an enclosure's halves read one end each."""
    def inward(name, order, x):  # (value - slack, value + slack)
        v = _value_at(getattr(fn, name), x)
        s = 1e-9 * abs(v) if fn.poly_coeffs is None else 2 * _horner_bound(fn, x, order)
        return v - s, v + s

    ends, sup = (domain.lo, domain.hi), lambda ps: max(0.0, *(max(lo, -hi) for lo, hi in ps))
    (lo_a, hi_a), (lo_b, hi_b) = d2 = [inward("d2", 2, x) for x in ends]
    return SimpleNamespace(sup_abs_d2=sup(d2), lower_d2=min(hi_a, hi_b), upper_d2=max(lo_a, lo_b),
                           sup_abs_d4=fn.d4 and sup(inward("d4", 4, x) for x in ends))


def _horner_bound(fn: TestFunction, x: float, order: int = 0) -> float:
    """(n + 1) 2^-52 |p^(order)|(|x|), |p| taking the n + 1 coefficients of
    f's polynomial p absolutely: how far f (order 0), f'' (2) or f'''' (4)
    may lie from p's at x (see :class:`TestFunction`).  Each |c_k| k!/(k -
    order)! is read as a float from fn's cached ``_horner`` table: a
    ``Fraction`` times a float rounds the Fraction to that double first, so
    every term and the sum are those of the exact coefficients."""
    terms = fn._horner[order]
    return len(fn.poly_coeffs) * 2.0**-52 * sum(c * abs(x) ** e for e, c in terms)


def _pconvex(fn: TestFunction, domain: Interval, q: float, of: str):
    """P-convexity of |d2|^q ('d2') or of f itself ('f') on the default
    grid. Returns the boolean outcome, or None when the scan was undefined."""
    if of == "f":
        g = fn.f
    else:  # x ** 1.0 is x bit for bit
        g = lambda x, _d2=fn.d2, _q=q: np.abs(_d2(x)) ** _q  # noqa: E731
    rep = check_p_convex(g, domain)
    return None if rep.status == "undefined" else rep.passed


class _Context:
    """Per-run caches of panels, envelopes and P-checks.  Each is built
    once: a build that raised an OracleError keeps its message, and every
    later lookup raises an OracleError with it without building anew."""

    def __init__(self):
        self._cache: dict = {}  # key -> value, or the message of its failed build
        self._lams: dict = {}  # lam key -> (exact lam, its exact moment)

    def _get(self, key, build, *args):
        cache = self._cache
        if key not in cache:
            try:
                cache[key] = build(*args)
            except OracleError as exc:
                cache[key] = str(exc)
        v = cache[key]
        if type(v) is str:
            # a new error each time: a raised error's traceback holds frames
            # that hold this cache, so a cached one would keep it in a cycle
            raise OracleError(v)
        return v

    def panel(self, fn: TestFunction, domain: Interval, kind: str) -> _Panel:
        key = (kind, fn.id, domain.lo, domain.hi)
        return self._get(key, _Panel, self, fn, domain, kind)

    def envelope(self, fn: TestFunction, domain: Interval) -> bounds.DerivativeEnvelope:
        key = ("envelope", fn.id, domain.lo, domain.hi)
        return self._get(key, _envelope, fn, domain)

    def pconvex(self, fn: TestFunction, domain: Interval, q: float, of: str):
        key = ("pconvex", fn.id, of, float(q), domain.lo, domain.hi)
        return self._get(key, _pconvex, fn, domain, q, of)

    def convex(self, fn: TestFunction, domain: Interval) -> bool:
        env = self.envelope(fn, domain)
        return env.lower_d2 >= -1e-12 * (1.0 + abs(env.upper_d2))

    def exact_lambda(self, lam) -> tuple:
        """(the exact lam, its kernel moment) of a lam key, a constant of
        the run: a grid float stands for its exact value, a rule name for
        the rule's lam."""
        v = self._lams.get(lam)
        if v is None:
            x = bounds.RULE_LAMBDA_EXACT[lam] if type(lam) is str else Fraction(lam)
            v = self._lams[lam] = x, kernel.weighted_moment(x)
        return v


def _monomial_case(fn: TestFunction, domain: Interval, q, ctx) -> bool:
    """f is exactly x^n with |n(n-1)| >= 3, on an interval with 0 < a."""
    terms = [(n, c) for n, c in enumerate(fn.poly_coeffs or ()) if c != 0]
    if len(terms) != 1 or domain.lo <= 0:
        return False
    ((n, c),) = terms
    return c == 1 and abs(n * (n - 1)) >= 3


# The check of each hypothesis the ledger states, on (function, interval) at
# the record's q: True, False, or None when it is undefined.  The sampled
# checks come first: the value of a record does not depend on them, and a
# search screens a trial on its float cell before them.
_SAMPLED = {
    "check_p_convex(|d2|)": lambda fn, dom, q, ctx: ctx.pconvex(fn, dom, 1.0, "d2"),
    "check_p_convex(|d2|^q)": lambda fn, dom, q, ctx: ctx.pconvex(fn, dom, q, "d2"),
    "check_p_convex(f)": lambda fn, dom, q, ctx: ctx.pconvex(fn, dom, 1.0, "f"),
    "f convex on [a, b]": lambda fn, dom, q, ctx: ctx.convex(fn, dom),
}
_HYPOTHESES = {
    **_SAMPLED,
    "f twice differentiable": lambda fn, dom, q, ctx: True,
    "f has d4": lambda fn, dom, q, ctx: fn.d4 is not None,
    "f = x^n, |n(n-1)| >= 3, 0 < a < b": _monomial_case,
}


# ---------------------------------------------------------------------------
# Block evaluation
# ---------------------------------------------------------------------------


def _lambda_row(claim: BoundClaim, p: _Panel, lam, qs, env=None):
    """The verdicts of |F(lam)| against the theorem 5/6, corollary or
    uniform-M bound at each q of ``qs``, on one panel; theorem 5 is the
    derived theorem 6 bound at q = 1, and a special-means proposition the
    corollary bound of its rule for x^n.  On an exact panel a claim that
    fixes lam reads its rule's exact lam.  The uniform-M bound reads
    ``env``, by default the panel's sampled envelope."""
    if p.exact and claim.fixed_lambda is not None:
        lam = claim.rule
    if claim.family == "corm":
        rhss = bounds._bounded_m_row(
            claim.rule, p.domain, [1.0 if q is None else q for q in qs], env or p.env,
            claim.form, claim.variant,
        )
    else:  # thm5 and thm6, and the corollaries and propositions at their rule's lam
        rhss = p.theorem6_row(lam, qs, claim.variant)
    return classify_row(p.lhs(lam), rhss, TOL, EQ_TOL)


def _side_row(claim: BoundClaim, p: _Panel, lam, qs, env=None):
    """The verdict of each half of the one cell of a claim without lam or
    q, on one panel, in the panel's number type: a two-sided enclosure has
    two, so its row is longer than ``qs``.

    * hh, hh-p: f(m) <= avg(f) <= (f(a)+f(b))/2, doubled where f is a
      P-function;
    * envelope: the midpoint or trapezoid gap inside its f''-range
      enclosure;
    * simpson4: |Simpson deviation| <= sup|f''''| (b-a)^p / 2880.

    The envelope and simpson4 claims read ``env``, by default the panel's
    sampled envelope."""
    fam, samples = claim.family, p.samples
    if fam == "simpson4":
        rhs = bounds.bound_classical("simpson", p.domain, env or p.env, claim.p)
        pairs = ((abs(functionals._simpson_value(samples)), rhs),)
    elif fam == "envelope":
        gap = (functionals._gap_left if claim.rule == "midpoint"
               else functionals._gap_right)(samples)
        lo_b, hi_b = bounds.bound_classical(claim.rule, p.domain, env or p.env)
        pairs = ((lo_b, gap), (gap, hi_b))
    else:
        fa, fm, fb, avg = samples
        if fam == "hh":
            pairs = ((fm, avg), (avg, (fa + fb) / 2))
        else:
            pairs = ((fm, 2 * avg), (2 * avg, 2 * (fa + fb)))
    return [classify_row(lhs, (rhs,), TOL, EQ_TOL)[0] for lhs, rhs in pairs]


def _row(claim: BoundClaim):
    """The row function of ``claim``: :func:`_side_row` where it has no lam."""
    return _lambda_row if claim.uses_lambda or claim.fixed_lambda is not None else _side_row


def _evaluate_block(
    claim: BoundClaim,
    fn: TestFunction,
    domain: Interval,
    lams,
    qs,
    ctx: _Context,
) -> list[VerificationRecord]:
    """The records of one claim on one (function, interval) over ``lams``
    x ``qs``, lam-major; a claim without lam or q has the 1x1 block
    ``lams = qs = (None,)``.

    The hypothesis is checked once per q.  The block is evaluated a lam row
    at a time by the row function :func:`_row` picks for the claim: the
    float row first, where each comfortable 'holds' is accepted, and then
    the same row function on the panel's exact values (polynomials) or
    else on the refined average, for the cells left.  Of an enclosure's
    two halves the block keeps the one with the smaller float margin, and
    confirms that one.  The propositions, stated for x^n, go to the exact
    panel directly.  An oracle failure makes the records it meets
    'undefined'.
    """
    head = claim.id, fn.id, domain.lo, domain.hi

    def bare(lam, q, status):  # a cell without sides
        return VerificationRecord(*head, lam, q, None, None, None, status, False)

    if not fn.domain.contains(domain):
        return [bare(lam, q, "hypothesis_failed") for lam in lams for q in qs]
    hypothesis, unmet = _HYPOTHESES[claim.hypothesis], {}
    for q in qs:
        try:
            ok = hypothesis(fn, domain, q, ctx)
        except OracleError:
            ok = None
        if not ok:
            unmet[q] = "undefined" if ok is None else "hypothesis_failed"

    exact, row = fn.poly_coeffs is not None, _row(claim)
    met = [q for q in qs if q not in unmet] if unmet else qs
    float_first = claim.family != "prop"
    out: list = []
    pending: dict = {}  # lam -> ([record index], [q]) of the cells left to confirm
    p, half = None, 0  # the float panel; the enclosure half the block keeps
    for lam in lams:
        verdicts, failed = (), False
        if float_first and met:
            try:
                p = p or ctx.panel(fn, domain, "float")
                verdicts = row(claim, p, lam, met)
            except OracleError:
                failed = True
            if len(verdicts) > len(met):
                half = 0 if verdicts[0][3] <= verdicts[1][3] else 1
                verdicts = verdicts[half:]
        cells = iter(verdicts)
        for q in qs:
            if q in unmet:
                out.append(bare(lam, q, unmet[q]))
            elif failed:
                out.append(bare(lam, q, "undefined"))
            else:
                verdict = next(cells, None)
                if verdict is not None and verdict[0] == "holds":
                    status, lhs, rhs, margin = verdict
                    out.append(VerificationRecord(*head, lam, q, lhs, rhs, margin, status, False))
                else:
                    indices, row_qs = pending.setdefault(lam, ([], []))
                    indices.append(len(out))
                    row_qs.append(q)
                    out.append(None)

    if pending:
        p = None
        for lam, (indices, row_qs) in pending.items():
            try:
                p = p or ctx.panel(fn, domain, "exact" if exact else "refined")
                verdicts = row(claim, p, lam, row_qs)[half:]
            except OracleError:
                verdicts = [("undefined",)] * len(row_qs)
            for k, q, verdict in zip(indices, row_qs, verdicts):
                if verdict[0] == "undefined":
                    out[k] = bare(lam, q, "undefined")
                else:
                    status, lhs, rhs, margin = verdict
                    out[k] = VerificationRecord(*head, lam, q, lhs, rhs, margin, status, exact)
    return out


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    records: tuple[VerificationRecord, ...]
    summary: dict


def resolve_claims(ids) -> list[BoundClaim]:
    if ids == ("all",) or ids == ["all"]:
        return list(_LEDGER.values())
    return [get_claim(cid) for cid in ids]


def resolve_functions(ids, registry) -> list[TestFunction]:
    """The functions of ``registry`` named by ``ids`` (all of them for
    ``all``).  With no registry they are the standard registry's instances,
    shared by every run in the process, so their cached constants are
    built once."""
    reg = registry if registry is not None else _REGISTRY
    if ids == ("all",) or ids == ["all"]:
        out = list(reg.values())
    else:
        for fid in ids:
            if fid not in reg:
                raise KeyError(
                    f"unknown function id {fid!r}; known ids: {', '.join(reg)}"
                )
        out = [reg[fid] for fid in ids]
    # every per-run cache is keyed on the function's id
    if len({fn.id for fn in out}) < len(out):
        raise ValueError(f"functions share an id: {[fn.id for fn in out]}")
    return out


class CampaignStream:
    """A campaign evaluated as it is read.

    Iterating yields the records of every (claim, function, interval,
    lambda, q) combination in canonical order (claim, function, a, b,
    lambda, q): one block per claim on one (function, interval), with
    claims and functions taken by id, intervals in sorted order and each
    block lambda-major over the sorted lambda and q grids.  The config
    repeats no key, so nothing ties and no record is sorted.
    ``summary`` is filled in once the last block has been yielded.  Pair
    i of the (function, interval) pairs, in that order, is evaluated claim
    by claim, with its own per-run caches, by process i mod n
    (:func:`_processes`); the reader is process 0, forks the others
    (:func:`_fork`) and takes each block in its turn, so nothing depends
    on n.  Each process tallies the summary counts of its own blocks
    (:func:`_tally`), and the reader merges the tallies in that order.  A
    reader that writes each block as it comes holds about one block of
    records at a time; :meth:`rendered` also has each process format its
    own blocks.  Workers are killed and reaped when the
    iteration ends, raises or is closed.  Unmet hypotheses yield
    'hypothesis_failed' records, oracle failures 'undefined' records;
    neither aborts the run.
    """

    def __init__(
        self,
        config: CampaignConfig,
        registry: Optional[Mapping[str, TestFunction]] = None,
    ):
        self.config = config
        self.summary: dict = {}
        self._claims = resolve_claims(config.claims)
        self._fns = resolve_functions(config.functions, registry)

    def __iter__(self) -> Iterator[list[VerificationRecord]]:
        return self._blocks(None)

    def rendered(self, render) -> Iterator[str]:
        """The text ``render(block)`` of each block, in the order iteration
        yields the blocks, each made by the process that evaluated the
        block: a worker sends the text with the block's summary tally
        (:func:`_tally`), and the reader renders only its own blocks.
        ``summary`` is filled in as for iteration."""
        return self._blocks(render)

    def _blocks(self, render):
        config = self.config
        intervals = [tuple(map(float, iv)) for iv in config.intervals]
        intervals = sorted(intervals + sample_intervals(config))
        lam_grid, q_grid = sorted(config.lambda_grid), sorted(config.q_grid)
        pairs = [(fn, Interval(*iv)) for fn in sorted(self._fns, key=_BY_ID) for iv in intervals]
        runs = [  # (claim, its lam values, its q values), claims by id
            (c, lam_grid if c.uses_lambda else (c.fixed_lambda,), q_grid if c.uses_q else (None,))
            for c in sorted(self._claims, key=_BY_ID)
        ]
        n = _processes(len(pairs) if runs else 0)
        entries = {  # claim id -> its summary entry, in config order
            c.id: {
                "provenance": c.provenance,
                "records": 0,
                "by_status": dict.fromkeys(STATUSES, 0),
                "min_margin": None,
            }
            for c in self._claims
        }

        def share(k, form):  # (form(block) or block, tally) of process k's blocks, in order
            ctx = _Context()
            for claim, lams, qs in runs:
                for fn, domain in pairs[k::n]:
                    block = _evaluate_block(claim, fn, domain, lams, qs, ctx)
                    yield (block if form is None else form(block)), _tally(block)

        workers: list = []  # (pid, read end) of processes 1 to n - 1
        try:
            for k in range(1, n):
                workers.append(_fork(share(k, render or _pack), workers))
            own = share(0, render)
            for claim, lams, qs in runs:
                for i, (fn, domain) in enumerate(pairs):
                    if i % n:
                        item, tally = _receive(*workers[i % n - 1])
                        if render is None:
                            head = claim.id, fn.id, domain.lo, domain.hi
                            item = _unpack(item, head, lams, qs)
                    else:
                        item, tally = next(own)
                    _merge(entries[claim.id], tally)
                    yield item
        finally:
            for pid, reader in workers:
                os.kill(pid, 9)  # SIGKILL; signal is not imported at start-up
                os.waitpid(pid, 0)
                reader.close()
        self.summary.update(_summary(entries))


def _processes(pairs: int) -> int:
    """The process count n for ``pairs`` (function, interval) pairs: one per
    usable CPU, at most one per pair, and one with no CPU affinity known."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, pairs))


class _Failure(tuple):
    """A worker's message that it failed: (exception, traceback text)."""


def _fork(messages, started: list) -> tuple:
    """(pid, pipe read end) of a worker that pickles each message of
    ``messages`` into the pipe as it is made, or its exception and
    traceback text as a :class:`_Failure`; it closes ``started``'s read
    ends, exits by ``os._exit``."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        os.close(r)
        for _, reader in started:
            reader.close()
        with open(w, "wb") as out:
            try:
                for message in messages:
                    pickle.dump(message, out)
                    out.flush()
            except BaseException as exc:
                import traceback  # only a failing worker needs it
                text = traceback.format_exc()
                try:
                    out.write(pickle.dumps(_Failure((exc, text))))
                except Exception:  # an exception pickle cannot write
                    out.write(pickle.dumps(_Failure((RuntimeError(repr(exc)), text))))
    finally:
        os._exit(0)


def _receive(pid: int, reader):
    """Worker ``pid``'s next message, or the exception it sent, raised with
    the worker's traceback."""
    try:
        message = pickle.load(reader)
    except EOFError:
        raise RuntimeError(f"campaign worker {pid} exited before its last block") from None
    if type(message) is _Failure:
        raise message[0] from RuntimeError(f"in campaign worker {pid}:\n{message[1]}")
    return message


def _pack(block: list) -> list:
    """A block as a worker sends it: per record ((lhs,), rhs, margin,
    status index, exact).  Records that share an lhs (a lam row) share its
    1-tuple, which pickle writes once, so the rebuilt ones share it too."""
    out, lhs, box = [], None, (None,)
    for r in block:
        if r[6] is not lhs:
            lhs, box = r[6], (r[6],)
        out.append((box, r[7], r[8], STATUSES.index(r[9]), r[10]))
    return out


def _unpack(packed: list, head: tuple, lams, qs) -> list[VerificationRecord]:
    """The records of a block of ``head`` over ``lams`` x ``qs`` from its
    :func:`_pack` form."""
    return [VerificationRecord(*head, lam, q, box[0], rhs, margin, STATUSES[s], x)
            for (lam, q), (box, rhs, margin, s, x) in zip(itertools.product(lams, qs), packed)]


_BY_ID = attrgetter("id")


def run_campaign(
    config: CampaignConfig,
    registry: Optional[Mapping[str, TestFunction]] = None,
) -> CampaignResult:
    """Every record of :class:`CampaignStream`, evaluated on every usable
    CPU, held at once in its canonical order, and the summary."""
    stream = CampaignStream(config, registry)
    records = tuple(itertools.chain.from_iterable(stream))
    return CampaignResult(config=config, records=records, summary=stream.summary)


def _tally(block) -> tuple:
    """(records, count of each status of STATUSES, least margin) of a block,
    the first of equal least margins kept."""
    counts, low = dict.fromkeys(STATUSES, 0), None
    for r in block:
        counts[r[9]] += 1  # the status
        m = r[8]  # the margin
        if m is not None and (low is None or m < low):
            low = m
    return len(block), tuple(counts.values()), low


def _merge(entry: dict, tally: tuple) -> None:
    """Add a block's :func:`_tally` to its claim's summary ``entry``.  Blocks
    are merged in emitted order, so that the first of equal least margins is
    kept, as though every record were counted in turn."""
    records, counts, low = tally
    entry["records"] += records
    by_status = entry["by_status"]
    for status, count in zip(STATUSES, counts):
        by_status[status] += count
    if low is not None and (entry["min_margin"] is None or low < entry["min_margin"]):
        entry["min_margin"] = low


def _summary(entries: dict) -> dict:
    """The campaign summary from its per-claim entries."""
    violated = sorted(c for c, e in entries.items() if e["by_status"]["violated"])
    return {
        "total": sum(e["records"] for e in entries.values()),
        "by_status": {s: sum(e["by_status"][s] for e in entries.values()) for s in STATUSES},
        "claims": entries,
        "violated_stated_only": [c for c in violated if entries[c]["provenance"] == STATED_ONLY],
        "violated_proof_backed": [
            c for c in violated if entries[c]["provenance"] == PROOF_BACKED
        ],
    }


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleSearch:
    """Search outcome: the confirmed record, or None, plus trials performed.

    Absence of a counterexample is a report, never a proof.
    """

    record: Optional[VerificationRecord]
    trials: int


_ENVELOPED = {"corm", "envelope", "simpson4"}  # the families that read an envelope


def _screen(
    claim: BoundClaim, fn: TestFunction, domain: Interval, lam, q, ctx: _Context
) -> bool:
    """Whether a search trial at (lam, q) is no hit, settled before its
    record builds a sampled check, the sampled envelope or an exact panel
    (False where the screen raised: the evaluation meets the error).  The
    screen reads every half of the trial's float cell, from the claim's row
    function on the float panel.  Only a confirmed 'violated' record is a
    hit, so a trial is settled where

    * its interval leaves f's domain or a guard ('f has d4', x^n) is unmet;
    * (every family but the propositions, which :func:`_evaluate_block`
      decides on the exact panel) every half holds with a positive margin,
      on :func:`_endpoint_envelope` for the families in :data:`_ENVELOPED`:
      the block accepts a float 'holds' whatever the hypothesis, and a
      sampled envelope only raises M or widens the f'' range, so the
      record's cell holds too;
    * (a polynomial) every half has m - E >= -TOL (E from
      :func:`_margin_error`), and a confirmed 'violated' needs an exact
      margin below -TOL max(1, |lhs|, |rhs|) <= -TOL.
    """
    if not fn.domain.contains(domain):
        return True
    hypothesis = claim.hypothesis
    if hypothesis not in _SAMPLED and not _HYPOTHESES[hypothesis](fn, domain, q, ctx):
        return True
    try:
        p = ctx.panel(fn, domain, "float")
        env = _endpoint_envelope(fn, domain) if claim.family in _ENVELOPED else None
        verdicts = _row(claim)(claim, p, lam, (q,), env)
        if claim.family != "prop" and all(v[0] == "holds" and v[3] > 0 for v in verdicts):
            return True
        if fn.poly_coeffs is not None:
            err = _margin_error(fn, p, q, sum(abs(v[1]) + abs(v[2]) for v in verdicts))
            return all(v[3] - err >= -TOL for v in verdicts)
    except Exception:  # noqa: BLE001 - the unscreened path decides the trial
        return False
    return False


def _margin_error(fn: TestFunction, p: _Panel, q, size: float) -> float:
    """E >= |m - m_exact| for each margin m = rhs - lhs of a polynomial's
    float cell on panel ``p`` (halves' |lhs| + |rhs| summing to ``size``)
    and its m_exact on exact values, envelope values as given; the
    README's search section derives each term.  E = inf where a subnormal
    M^q > 0 (M = max |f''(a)|, |f''(b)|) may leave the root off by 2^(1/q)."""
    d, m = p.domain, max(p.ends.m_a, p.ends.m_b)
    if m and m ** (q or 1.0) < 2.0**-1022:
        return math.inf
    ulps = len(fn.poly_coeffs) + 15 + (abs(math.log(m)) if m else 0.0)
    horner = sum(_horner_bound(fn, x) for x in (d.lo, d.midpoint, d.hi))
    horner += d.width**2 * (_horner_bound(fn, d.lo, 2) + _horner_bound(fn, d.hi, 2))
    return ulps * 2.0**-50 * (abs(p.samples[3]) + size) + 16 * horner


def find_counterexample(
    claim_id: str,
    search: CampaignConfig,
    registry: Optional[Mapping[str, TestFunction]] = None,
) -> CounterexampleSearch:
    """Randomized falsification search with shrinking.

    Samples (function, interval, lambda, q) from the config space; on a
    violation, first shrinks q down the grid to the smallest violating
    value, then shrinks the interval toward unit width while the violation
    persists.  Every candidate passes through the same confirmation paths
    as campaign records before being returned.

    Only a confirmed 'violated' record is a hit, so a trial that
    :func:`_screen` settles builds no record: no P-check, convexity check
    or sampled envelope where every half of its float cell holds with a
    positive margin (on f'' and f'''' at a and b where the bound reads an
    envelope), and no exact panel where a polynomial's float margin cannot
    become a confirmed violation.  Every other trial is evaluated as a
    campaign evaluates its cell.  ``trials=0`` searches no trial.
    """
    claim = get_claim(claim_id)
    fns = resolve_functions(search.functions, registry)
    if not fns:
        return CounterexampleSearch(record=None, trials=0)
    rng = random.Random(search.seed)
    trials = search.trials
    ctx = _Context()

    def attempt(fn, a, b, lam, q) -> Optional[VerificationRecord]:
        domain = Interval(a, b)
        if _screen(claim, fn, domain, lam, q, ctx):
            return None
        (r,) = _evaluate_block(claim, fn, domain, (lam,), (q,), ctx)
        return r if r.status == "violated" else None

    for t in range(1, trials + 1):
        fn = rng.choice(fns)
        a, b = _random_interval(rng, search)
        lam = rng.choice(search.lambda_grid) if claim.uses_lambda else claim.fixed_lambda
        q = rng.choice(search.q_grid) if claim.uses_q else None
        hit = attempt(fn, a, b, lam, q)
        if hit is None:
            continue

        if claim.uses_q:
            for q_try in sorted(search.q_grid):
                smaller = attempt(fn, a, b, lam, q_try)
                if smaller is not None:
                    hit, q = smaller, q_try
                    break

        for _ in range(40):
            width = b - a
            if width <= 1.0 + 1e-9:
                break
            new_w = max(1.0, width / 2.0)
            c = 0.5 * (a + b)
            na, nb = c - new_w / 2.0, c + new_w / 2.0
            shrunk = attempt(fn, na, nb, lam, q)
            if shrunk is None:
                break
            hit, a, b = shrunk, na, nb

        return CounterexampleSearch(record=hit, trials=t)

    return CounterexampleSearch(record=None, trials=trials)
