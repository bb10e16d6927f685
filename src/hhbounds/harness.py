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
average, or in exact rationals.  The lambda-family claims (theorems 5 and
6 and their corollaries) are evaluated a lam row at a time: their bounds
factor into a value per lam and one per q, so one row function reads
|F(lam)|, the lam factor (b-a)^2 moment(lam) and the power sums
(|f''(a)|^q + |f''(b)|^q)^(1/q) from the panel's caches, each computed
once by the formulas of :mod:`bounds` and shared by every claim that reads
it; an exact lam and its exact moment are constants of the run.  Every
other claim has one record per block and a side function that states its
inequality on a panel.  The float row comes first; each cell that is not a
comfortable 'holds' is re-derived by the same row or side function, inside
one 50-digit context per block, on the exact panel (polynomials) or on the
refined one, and :func:`~hhbounds.records.classify_row`, the row form of
:func:`~hhbounds.records.classify`, decides every status.  The
special-means propositions are the corollary rows of their rule,
evaluated on the exact panel of x^n.  An oracle failure anywhere,
confirmation included, yields an 'undefined' record, and so does an f,
f'' or f'''' that raises where it is sampled.  Every per-run value (a
panel, an envelope, a P-check) is built once; one whose build failed is
not built again.  Runs are deterministic for a fixed config.
A counterexample search screens every trial (:func:`_screen`) and builds
no record, sampled check, envelope or exact panel for one that cannot be a
hit.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping, Optional

import mpmath
import numpy as np

from . import bounds, functionals, kernel, means, oracle
from .corpus import (
    GridSpec,
    Interval,
    TestFunction,
    check_p_convex,
    corpus_standard,
)
from .oracle import OracleError, _sample, _terms_at, _value_at, to_mpf
from .records import STATUSES, VerificationRecord, classify, classify_row

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


@dataclass(frozen=True)
class BoundClaim:
    """One named inequality: lhs_spec <= rhs_spec under a hypothesis."""

    id: str
    description: str
    provenance: str
    lhs_spec: str
    rhs_spec: str
    hypothesis: str
    family: str
    rule: Optional[str] = None
    variant: Optional[str] = None
    form: Optional[str] = None
    prop_idx: Optional[int] = None
    p: Optional[int] = None
    uses_lambda: bool = False
    fixed_lambda: Optional[float] = None
    uses_q: bool = False


def ledger_standard() -> tuple[BoundClaim, ...]:
    """The full claims ledger; power-mean family claims appear twice
    (stated and derived constants).  The corollaries fix lam at their
    rule's value from :data:`bounds.RULE_LAMBDA_EXACT`."""
    variants = (("stated", STATED_ONLY), ("derived", PROOF_BACKED))
    rule_lam = {r: float(lam) for r, lam in bounds.RULE_LAMBDA_EXACT.items()}
    f_lam = "abs(functional_lambda)"
    d2q = "check_p_convex(|d2|^q)"
    claims = [
        BoundClaim(
            "thm5", "endpoint-sum deviation bound for P-convex |f''|", PROOF_BACKED,
            f_lam, "bound_theorem5", "check_p_convex(|d2|)", "thm5", uses_lambda=True,
        )
    ]
    claims += [
        BoundClaim(
            f"thm6-{v}", f"power-mean deviation bound ({v} constant)", prov,
            f_lam, "bound_theorem6", d2q, "thm6", variant=v, uses_lambda=True,
            uses_q=True,
        )
        for v, prov in variants
    ]
    for num, rule in zip((1, 2, 3), rule_lam):
        claims += [
            BoundClaim(
                f"cor{num}-{v}", f"{rule} power-mean bound ({v} constant)", prov,
                f_lam, "bound_corollary", d2q, "cor", rule=rule, variant=v,
                fixed_lambda=rule_lam[rule], uses_q=True,
            )
            for v, prov in variants
        ]
    for num, rule in zip((4, 5, 8), rule_lam):
        claims += [
            BoundClaim(
                f"cor{num}-{v}", f"{rule} uniform-M bound with 2^(1/q) ({v})", prov,
                f_lam, "bound_bounded_m", d2q, "corm", rule=rule, variant=v,
                form="with_q", fixed_lambda=rule_lam[rule], uses_q=True,
            )
            for v, prov in variants
        ]
        # The relaxed forms (2^(1/q) <= 2) coincide with the sharp kernel
        # bounds M (b-a)^2 * int|k|, hence proof-backed.
        claims.append(
            BoundClaim(
                f"cor{num}-relaxed", f"{rule} uniform-M bound, q-free form",
                PROOF_BACKED, f_lam, "bound_bounded_m", "check_p_convex(|d2|)",
                "corm", rule=rule, variant="stated", form="relaxed",
                fixed_lambda=rule_lam[rule],
            )
        )
    claims += [
        BoundClaim(
            "hh", "average-value enclosure for convex f", PROOF_BACKED,
            "hh_gap_left/hh_gap_right", "0 <= gap", "f convex on [a, b]", "hh",
        ),
        BoundClaim(
            "hh-p", "doubled average-value enclosure for P-functions", PROOF_BACKED,
            "hh_p_check sides", "hh_p_check sides", "check_p_convex(f)", "hh-p",
        ),
        BoundClaim(
            "mid-envelope", "two-sided midpoint-gap enclosure from f'' range",
            PROOF_BACKED, "hh_gap_left", "bound_classical(midpoint)",
            "f twice differentiable", "envelope", rule="midpoint",
        ),
        BoundClaim(
            "trap-envelope", "two-sided trapezoid-gap enclosure from f'' range",
            PROOF_BACKED, "hh_gap_right", "bound_classical(trapezoid)",
            "f twice differentiable", "envelope", rule="trapezoid",
        ),
        BoundClaim(
            "simpson-4th-p4",
            "classical fourth-derivative Simpson bound (quartic width)", PROOF_BACKED,
            "abs(simpson_deviation)", "bound_classical(simpson, p=4)", "f has d4",
            "simpson4", rule="simpson", p=4,
        ),
        BoundClaim(
            "simpson-4th-p2", "quadratic-width variant of the Simpson bound",
            STATED_ONLY, "abs(simpson_deviation)", "bound_classical(simpson, p=2)",
            "f has d4", "simpson4", rule="simpson", p=2,
        ),
    ]
    for idx, rule in enumerate(means._PROP_RULES, 1):
        claims += [
            BoundClaim(
                f"prop{idx}-{v}", f"special-means inequality {idx} ({v} constant)",
                prov, "abs(mean combination)", "check_proposition",
                "f = x^n, |n(n-1)| >= 3, 0 < a < b", "prop", prop_idx=idx, variant=v,
                fixed_lambda=rule_lam[rule], uses_q=True,
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
    """Everything needed to reproduce a verification run byte for byte."""

    claims: tuple[str, ...] = ()
    functions: tuple[str, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ((1.0, 2.0),)
    trials: int = 0
    interval_range: tuple[float, float] = (0.1, 10.0)
    min_width: float = 0.05
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID
    seed: int = 0
    tol: float = 1e-9
    eq_tol: float = 1e-12
    oracle_tol: float = 1e-12
    pconvex_grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self) -> None:
        if not self.lambda_grid or not self.q_grid:
            raise ValueError("lambda and q grids must be nonempty")
        if not all(0 <= lam <= 1 for lam in self.lambda_grid):
            raise ValueError("lambda grid values must lie in [0, 1]")
        if not all(q >= 1 for q in self.q_grid):
            raise ValueError("q grid values must be >= 1")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        # Floats compare with ==, so 0.0 and -0.0 are one value.  With no
        # value repeated, no two records share a key of the canonical order.
        for kind, values in (
            ("claim id", self.claims),
            ("function id", self.functions),
            ("interval", [tuple(map(float, iv)) for iv in self.intervals]),
            ("lambda value", self.lambda_grid),
            ("q value", self.q_grid),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"each {kind} may be given once, got {list(values)}")

    def as_dict(self) -> dict:
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
            "tol": self.tol,
            "eq_tol": self.eq_tol,
            "oracle_tol": self.oracle_tol,
            "pconvex_grid": [
                self.pconvex_grid.nx,
                self.pconvex_grid.ny,
                self.pconvex_grid.nlam,
            ],
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
    side functions read from it.

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
    exact value and exact moment are per-run constants of the context.  An
    exact panel also keeps |F(lam)| and the lam factor as mpfs (the stated
    constant halves the factor once per row); it meets mpfs only inside the
    50-digit confirmation context, so they are all taken at that precision.
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
            tol = ctx.config.oracle_tol / 10.0
            avg = oracle.integrate(fn.f, domain, tol).value / domain.width
        else:
            avg = functionals.average_value(fn, domain, ctx.config.oracle_tol)
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

    def lhs_mp(self, lam):
        """|F(lam)| as an mpf (exact panels)."""
        memo = self._memo["lhs_mp"]
        v = memo.get(lam)
        if v is None:
            v = memo[lam] = to_mpf(self.lhs(lam))
        return v

    def theorem6_row(self, lam, qs, variant: str) -> list:
        """:func:`bounds.bound_theorem6` at lam for each q of ``qs``, from
        the cached lam factor c and power sums s: c * s, halved for the
        stated constant.  On an exact panel a bound is a Fraction where s
        is one (q = 1) and an mpf where s is an mpf root; there the stated
        constant halves the mpf factor once per row, before the products,
        which in binary mpf gives the same roundings."""
        sums = self._memo["power_sum"]
        for q in qs:
            if q not in sums:
                e = self.ends
                sums[q] = bounds._power_sum(e.m_a, e.m_b, q)
        factors = self._memo["lam_factor"]
        c = factors.get(lam)
        if c is None:
            if self.exact:  # the exact moment is a constant of the run
                c = self.domain.width**2 * self._ctx.exact_lambda(lam)[1]
            else:
                c = bounds._coefficient(self.domain, lam)
            factors[lam] = c
        if not self.exact:
            if variant == "derived":
                return [c * sums[q] for q in qs]
            return [c * sums[q] / 2 for q in qs]
        c_mp = self._mpf("lam_factor_mp", lam, c)
        row = [sums[q] for q in qs]
        if variant == "derived":
            return [c * s if type(s) is Fraction else c_mp * s for s in row]
        half = c_mp / 2
        return [c * s / 2 if type(s) is Fraction else half * s for s in row]

    def _mpf(self, stat: str, key, value):
        """``value`` as an mpf, cached as ``stat`` at ``key``."""
        memo = self._memo[stat]
        v = memo.get(key)
        if v is None:
            v = memo[key] = to_mpf(value)
        return v


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


def _endpoint_envelope(fn: TestFunction, domain: Interval) -> bounds.DerivativeEnvelope:
    """f'' and f'''' at a and b alone, pulled in by a relative 1e-9 so that
    it lies inside :func:`_envelope`, whose samples include a and b (where
    an array evaluation may differ from these scalar ones in the last
    bits).  The f'' range is left out where pulling it in empties it."""
    ends, shrink = (domain.lo, domain.hi), 1.0 - 1e-9
    lo, hi = sorted(_value_at(fn.d2, x) for x in ends)
    sup_d4 = None
    if fn.d4 is not None:
        sup_d4 = max(abs(_value_at(fn.d4, x)) for x in ends) * shrink
    lo_in, hi_in = lo + 1e-9 * abs(lo), hi - 1e-9 * abs(hi)
    if lo_in > hi_in:
        lo_in = hi_in = None
    sup_d2 = max(abs(lo), abs(hi)) * shrink
    return bounds.DerivativeEnvelope(sup_d2, lo_in, hi_in, sup_d4)


def _pconvex(fn: TestFunction, domain: Interval, q: float, of: str, grid: GridSpec):
    """P-convexity of |d2|^q ('d2') or of f itself ('f'). Returns the
    boolean outcome, or None when the scan was undefined."""
    if of == "f":
        g = fn.f
    elif q == 1.0:
        g = lambda x, _d2=fn.d2: np.abs(_d2(x))  # noqa: E731
    else:
        g = lambda x, _d2=fn.d2, _q=q: np.abs(_d2(x)) ** _q  # noqa: E731
    rep = check_p_convex(g, domain, grid)
    return None if rep.status == "undefined" else rep.passed


class _Context:
    """Per-run caches of panels, envelopes and P-checks.  Each is built
    once: a build that raised an OracleError keeps its message, and every
    later lookup raises an OracleError with it without building anew."""

    def __init__(self, config: CampaignConfig):
        self.config = config
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
        return self._get(key, _pconvex, fn, domain, q, of, self.config.pconvex_grid)

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
# the record's q: True, False, or None when it is undefined.
_HYPOTHESES = {
    "check_p_convex(|d2|)": lambda fn, dom, q, ctx: ctx.pconvex(fn, dom, 1.0, "d2"),
    "check_p_convex(|d2|^q)": lambda fn, dom, q, ctx: ctx.pconvex(fn, dom, q, "d2"),
    "check_p_convex(f)": lambda fn, dom, q, ctx: ctx.pconvex(fn, dom, 1.0, "f"),
    "f convex on [a, b]": lambda fn, dom, q, ctx: ctx.convex(fn, dom),
    "f twice differentiable": lambda fn, dom, q, ctx: True,
    "f has d4": lambda fn, dom, q, ctx: fn.d4 is not None,
    "f = x^n, |n(n-1)| >= 3, 0 < a < b": _monomial_case,
}

# The hypotheses that are sampled checks the value of a record does not
# depend on; a search screens a trial on its float cell before them.
_SAMPLED = {
    "check_p_convex(|d2|)", "check_p_convex(|d2|^q)", "check_p_convex(f)",
    "f convex on [a, b]",
}


# ---------------------------------------------------------------------------
# Block evaluation
# ---------------------------------------------------------------------------


def _lambda_row(claim: BoundClaim, p: _Panel, lam, qs, tol, eq_tol, env=None):
    """The verdicts of |F(lam)| against the theorem 5/6, corollary or
    uniform-M bound at each q of ``qs``, on one panel; a special-means
    proposition is the corollary bound of its rule for x^n.  On an exact
    panel a claim that fixes lam reads its rule's exact lam.  The uniform-M
    bound reads ``env``, by default the panel's sampled envelope."""
    if p.exact and claim.id in _LAMBDA_RULE:
        lam = _LAMBDA_RULE[claim.id]
    fam = claim.family
    if fam == "thm5":
        rhss = [bounds.bound_theorem5(p.domain, p.lam(lam), p.ends)]
    elif fam == "corm":
        env = env or p.env
        rhss = [
            bounds.bound_bounded_m(
                claim.rule, p.domain, 1.0 if q is None else q, env, claim.form,
                claim.variant,
            )
            for q in qs
        ]
    else:  # thm6, and the corollaries and propositions at their rule's lam
        rhss = p.theorem6_row(lam, qs, claim.variant)
    lhs_mp = None
    if p.exact and any(type(r) is not Fraction for r in rhss):
        lhs_mp = p.lhs_mp(lam)
    return classify_row(p.lhs(lam), rhss, tol, eq_tol, lhs_mp)


# The rule whose exact lam each claim that fixes lam reads on an exact panel.
_LAMBDA_RULE = {
    c.id: c.rule or means._PROP_RULES[c.prop_idx - 1]
    for c in _LEDGER.values()
    if c.fixed_lambda is not None
}


# A side function returns the candidate inequalities (lhs, rhs) of a claim
# without lam or q on one panel, in the panel's number type.  A two-sided
# enclosure returns both halves; the record keeps the half with the smaller
# float margin.  An envelope claim reads ``env``, by default the panel's
# sampled envelope.


def _hh_sides(claim: BoundClaim, p: _Panel, env=None):
    """f(m) <= avg(f) <= (f(a)+f(b))/2, doubled where f is a P-function."""
    fa, fm, fb, avg = p.samples
    if claim.family == "hh":
        return ((fm, avg), (avg, (fa + fb) / 2))
    return ((fm, 2 * avg), (2 * avg, 2 * (fa + fb)))


def _envelope_sides(claim: BoundClaim, p: _Panel, env=None):
    """The midpoint or trapezoid gap inside its f''-range enclosure."""
    if claim.rule == "midpoint":
        gap = functionals._gap_left(p.samples)
    else:
        gap = functionals._gap_right(p.samples)
    lo_b, hi_b = bounds.bound_classical(claim.rule, p.domain, env or p.env)
    return ((lo_b, gap), (gap, hi_b))


def _simpson4_sides(claim: BoundClaim, p: _Panel, env=None):
    """|Simpson deviation| against sup|f''''| (b-a)^p / 2880."""
    lhs = abs(functionals._simpson_value(p.samples))
    return ((lhs, bounds.bound_classical("simpson", p.domain, env or p.env, claim.p)),)


_SIDES = {
    "hh": _hh_sides,
    "hh-p": _hh_sides,
    "envelope": _envelope_sides,
    "simpson4": _simpson4_sides,
}


def _half(pairs) -> int:
    """The index of the pair a side function's record keeps: the half of a
    two-sided enclosure with the smaller float margin."""
    if len(pairs) == 1:
        return 0
    m0, m1 = (rhs - lhs for lhs, rhs in pairs)
    return 0 if m0 <= m1 else 1


def _evaluate_block(
    claim: BoundClaim,
    fn: TestFunction,
    domain: Interval,
    lams,
    qs,
    ctx: _Context,
) -> list[VerificationRecord]:
    """The records of one claim on one (function, interval) over ``lams``
    x ``qs``, lam-major.

    The hypothesis is checked once per q.  A lambda-family claim is
    evaluated a lam row at a time: the float row first, where each
    comfortable 'holds' is accepted, and then, inside one 50-digit context
    per block, the same row function on the panel's exact values
    (polynomials) or else on the refined average, for the cells left.  The
    propositions, stated for x^n, go to the exact panel directly.  A claim
    without lam or q has one record, decided the same way by its side
    function.  An oracle failure makes the records it meets 'undefined'.
    """
    def rec(lam, q, status, lhs=None, rhs=None, margin=None, exact=False):
        return VerificationRecord(
            claim.id, fn.id, domain.lo, domain.hi, lam, q,
            lhs, rhs, margin, status, exact,
        )

    if not fn.domain.contains(domain):
        return [rec(lam, q, "hypothesis_failed") for lam in lams for q in qs]
    hypothesis, unmet = _HYPOTHESES[claim.hypothesis], {}
    for q in qs:
        try:
            ok = hypothesis(fn, domain, q, ctx)
        except OracleError:
            ok = None
        if not ok:
            unmet[q] = "undefined" if ok is None else "hypothesis_failed"

    tol, eq_tol = ctx.config.tol, ctx.config.eq_tol
    exact = fn.poly_coeffs is not None
    confirm_kind = "exact" if exact else "refined"

    def confirmed(lam, q, verdict):
        if verdict[0] == "undefined":
            return rec(lam, q, "undefined")
        return rec(lam, q, *verdict, exact)

    if claim.family in _SIDES:
        if None in unmet:
            return [rec(None, None, unmet[None])]
        sides = _SIDES[claim.family]
        try:
            pairs = sides(claim, ctx.panel(fn, domain, "float"))
        except OracleError:
            return [rec(None, None, "undefined")]
        i = _half(pairs)
        verdict = classify(*pairs[i], tol, eq_tol)
        if verdict[0] == "holds":
            return [rec(None, None, *verdict)]
        with mpmath.workdps(50):
            try:
                pairs = sides(claim, ctx.panel(fn, domain, confirm_kind))
            except OracleError:
                return [rec(None, None, "undefined")]
            return [confirmed(None, None, classify(*pairs[i], tol, eq_tol))]

    met = [q for q in qs if q not in unmet] if unmet else qs
    float_first = claim.family != "prop"
    out: list = []
    pending: dict = {}  # lam -> ([record index], [q]) of the cells left to confirm
    p = None
    for lam in lams:
        verdicts, failed = (), False
        if float_first and met:
            try:
                p = p or ctx.panel(fn, domain, "float")
                verdicts = _lambda_row(claim, p, lam, met, tol, eq_tol)
            except OracleError:
                failed = True
        cells = iter(verdicts)
        for q in qs:
            if q in unmet:
                out.append(rec(lam, q, unmet[q]))
            elif failed:
                out.append(rec(lam, q, "undefined"))
            else:
                verdict = next(cells, None)
                if verdict is not None and verdict[0] == "holds":
                    out.append(rec(lam, q, *verdict))
                else:
                    indices, row_qs = pending.setdefault(lam, ([], []))
                    indices.append(len(out))
                    row_qs.append(q)
                    out.append(None)

    if pending:
        p = None
        with mpmath.workdps(50):
            for lam, (indices, row_qs) in pending.items():
                try:
                    p = p or ctx.panel(fn, domain, confirm_kind)
                    verdicts = _lambda_row(claim, p, lam, row_qs, tol, eq_tol)
                except OracleError:
                    verdicts = [("undefined",)] * len(row_qs)
                for k, q, verdict in zip(indices, row_qs, verdicts):
                    out[k] = confirmed(lam, q, verdict)
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
        return list(ledger_standard())
    return [get_claim(cid) for cid in ids]


def resolve_functions(ids, registry) -> list[TestFunction]:
    reg = registry if registry is not None else {f.id: f for f in corpus_standard()}
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
    ``summary`` is filled in once the last block has been yielded.  A
    reader that writes each block as it comes holds one block of records
    at a time, beside the per-panel caches.  Unmet hypotheses yield
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
        config = self.config
        intervals = [tuple(map(float, iv)) for iv in config.intervals]
        intervals = sorted(intervals + sample_intervals(config))
        lam_grid, q_grid = sorted(config.lambda_grid), sorted(config.q_grid)
        fns = sorted(self._fns, key=_BY_ID)
        ctx = _Context(config)
        entries = {  # claim id -> its summary entry, in config order
            c.id: {
                "provenance": c.provenance,
                "records": 0,
                "by_status": dict.fromkeys(STATUSES, 0),
                "min_margin": None,
            }
            for c in self._claims
        }
        for claim in sorted(self._claims, key=_BY_ID):
            lams = lam_grid if claim.uses_lambda else (claim.fixed_lambda,)
            qs = q_grid if claim.uses_q else (None,)
            for fn in fns:
                for a, b in intervals:
                    block = _evaluate_block(claim, fn, Interval(a, b), lams, qs, ctx)
                    _count(entries[claim.id], block)
                    yield block
        self.summary.update(_summary(entries))


_BY_ID = attrgetter("id")


def run_campaign(
    config: CampaignConfig,
    registry: Optional[Mapping[str, TestFunction]] = None,
) -> CampaignResult:
    """Every record of :class:`CampaignStream`, in its canonical order, and
    the summary."""
    stream = CampaignStream(config, registry)
    records = tuple(itertools.chain.from_iterable(stream))
    return CampaignResult(config=config, records=records, summary=stream.summary)


def _count(entry: dict, records) -> None:
    """Add ``records``, all of one claim, to its summary ``entry``, in
    emitted order, so that the first of equal least margins is kept."""
    counts, low = entry["by_status"], entry["min_margin"]
    for r in records:
        counts[r.status] += 1
        m = r.margin
        if m is not None and (low is None or m < low):
            low = m
    entry["records"] += len(records)
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
    (False where the screen raised: the evaluation meets the error).  Only
    a confirmed 'violated' record is a hit, so a trial is settled where

    * its interval leaves f's domain or a guard ('f has d4', x^n) is unmet;
    * (corm, envelope, simpson4) every half of its float cell holds with a
      positive margin on :func:`_endpoint_envelope`: a sampled envelope
      only raises M or widens the f'' range, so the record's cell holds too;
    * (prop) its float margin exceeds :func:`_rounding_bound`;
    * (a hypothesis in :data:`_SAMPLED`) its float cell comfortably holds,
      which :func:`_evaluate_block` accepts whatever the hypothesis.
    """
    if not fn.domain.contains(domain):
        return True
    hypothesis = claim.hypothesis
    if hypothesis not in _SAMPLED and not _HYPOTHESES[hypothesis](fn, domain, q, ctx):
        return True
    tol, eq_tol = ctx.config.tol, ctx.config.eq_tol

    def cell(env=None):  # the float verdict of every half, and the half kept
        if claim.family in _SIDES:
            pairs = _SIDES[claim.family](claim, p, env)
            return [classify(*pair, tol, eq_tol) for pair in pairs], _half(pairs)
        return _lambda_row(claim, p, lam, (q,), tol, eq_tol, env), 0

    try:
        p = ctx.panel(fn, domain, "float")
        if claim.family in _ENVELOPED:
            verdicts, _ = cell(_endpoint_envelope(fn, domain))
            if all(v[0] == "holds" and v[3] > 0 for v in verdicts):
                return True
        if claim.family == "prop":
            ((_, _, rhs, margin),), _ = cell()
            return margin > _rounding_bound(fn, p, q, rhs)
        if hypothesis in _SAMPLED:
            verdicts, i = cell()
            return verdicts[i][0] == "holds"
    except Exception:  # noqa: BLE001 - the unscreened path decides the trial
        return False
    return False


def _rounding_bound(fn: TestFunction, p: _Panel, q, rhs: float) -> float:
    """Over four times the rounding error of a proposition's float margin
    for x^n (n + 1 coefficients): n/2 + 1 ulps per sample (the rounded
    midpoint to the n-th power), 6 ulps of their sum in |F(lam)|, and 14
    plus |ln M| ulps of the rhs (M = max|f''|; |ln M| from the rounded
    exponent 1/q).  Other underflows err by far less than tol; a subnormal
    M^q does not, and gives an infinite bound."""
    m = max(p.ends.m_a, p.ends.m_b)
    if m**q < 2.0**-1022:
        return math.inf
    scale = sum(map(abs, p.samples)) + abs(rhs)
    return (len(fn.poly_coeffs) + 16 + abs(math.log(m))) * 2.0**-50 * scale


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
    :func:`_screen` settles builds no record: no P-check or convexity check
    where its float cell comfortably holds, no sampled envelope where the
    cell holds on f'' and f'''' at a and b, no exact panel where a
    proposition's float margin passes its rounding error.  ``trials=0``
    searches no trial.
    """
    claim = get_claim(claim_id)
    fns = resolve_functions(search.functions, registry)
    if not fns:
        return CounterexampleSearch(record=None, trials=0)
    rng = random.Random(search.seed)
    trials = search.trials
    ctx = _Context(search)

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
