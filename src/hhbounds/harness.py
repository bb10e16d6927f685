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
(function, interval) over the whole lambda x q grid.  Claims and functions
are taken by id, intervals in sorted order and each block's records
sorted by (lambda, q), so :class:`CampaignStream` yields the blocks
already in the canonical record order and summarizes them as they pass;
nothing is sorted across blocks, and a writer holds one block of records
at a time.  The
hypothesis is checked once per q.  Each claim family has one side
function that states its inequality on a panel: the values of one
(function, interval) in floats, in floats with a refined average, or in
exact rationals.  A panel
also caches the statistics the lambda-family sides factor into, each
computed once by the formulas of :mod:`bounds` and shared by every claim
that reads it: |F(lam)| and the bound's lam factor (b-a)^2 moment(lam) per
lam, the power sum (|f''(a)|^q + |f''(b)|^q)^(1/q) per q, and on an exact
panel their 50-digit forms.  The float sides come first; any margin that is
not a comfortable 'holds' is re-derived by the same side function, inside
one 50-digit context per block, on the exact panel (polynomials) or on the
refined one, and :func:`~hhbounds.records.classify` decides every status.
The special-means propositions are the corollary sides of their rule,
evaluated on the exact panel of x^n.  An oracle failure anywhere,
confirmation included, yields an 'undefined' record, and so does an f,
f'' or f'''' that raises where it is sampled; a panel whose build failed is
not built again.  Runs are deterministic for a fixed config.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping, Optional

import mpmath
import numpy as np

from . import bounds, functionals, means, oracle
from .corpus import (
    GridSpec,
    Interval,
    TestFunction,
    check_p_convex,
    corpus_standard,
)
from .oracle import (
    OracleError,
    _poly_terms,
    _sample,
    _terms_at,
    _value_at,
    poly_derivative_coeffs,
    to_mpf,
)
from .records import STATUSES, VerificationRecord, classify

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
    lo, hi = config.interval_range
    out = []
    for _ in range(config.trials):
        a = rng.uniform(lo, hi - config.min_width)
        b = rng.uniform(a + config.min_width, hi)
        out.append((a, b))
    return out


class _Panel:
    """One (function, interval) in one number type, and the statistics the
    side functions read from it.

    ``kind`` is 'float', 'refined' (floats, with the average re-integrated
    by the oracle at a tenth of the tolerance, bypassing any closed form)
    or 'exact' (Fractions; polynomials only).  ``domain`` has endpoints of
    that type and ``samples`` is (f(a), f(m), f(b), avg(f)).  The endpoint
    data |f''(a)|, |f''(b)| and the sampled envelope are computed on first
    use, since only some claim families read them.

    The lambda-family sides factor into one value per lam and one per q:
    |F(lam)|, the bound's lam factor (b-a)^2 moment(lam), and the power sum
    (|f''(a)|^q + |f''(b)|^q)^(1/q).  Each is computed once per panel, by
    the same formulas :func:`bounds.bound_theorem6` combines, and shared by
    every claim that reads it.  An exact panel also keeps the mpf forms of
    the lam values; it meets mpfs only inside the 50-digit confirmation
    context, so they are all taken at that precision.
    """

    __slots__ = (
        "_ctx", "_fn", "_interval", "_ends", "_env", "_memo", "exact", "domain",
        "samples",
    )

    def __init__(self, ctx: "_Context", fn: TestFunction, domain: Interval, kind: str):
        self._ctx, self._fn, self._interval = ctx, fn, domain
        self._ends = self._env = None
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
                d2 = self._ctx.d2_terms(self._fn)
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

    def lhs(self, lam, mp: bool = False):
        """|F(lam)|; its mpf when ``mp``."""
        key = lam.as_integer_ratio() if self.exact else lam  # Fractions hash slowly
        memo = self._memo["lhs"]
        v = memo.get(key)
        if v is None:
            v = memo[key] = abs(functionals._lambda_value(self.samples, lam))
        return self._mpf("lhs_mp", key, v) if mp else v

    def theorem6(self, lam, q, variant: str):
        """:func:`bounds.bound_theorem6` from the cached lam factor and
        power sum."""
        memo = self._memo["power_sum"]
        s = memo.get(q)
        if s is None:
            e = self.ends
            s = memo[q] = bounds._power_sum(e.m_a, e.m_b, q)
        key = lam.as_integer_ratio() if self.exact else lam
        memo = self._memo["lam_factor"]
        c = memo.get(key)
        if c is None:
            c = memo[key] = bounds._coefficient(self.domain, lam)
        if isinstance(s, mpmath.mpf):
            c = self._mpf("lam_factor_mp", key, c)
        return bounds._combine(c, s, variant)

    def _mpf(self, stat: str, key, value):
        """``value`` as an mpf, cached as ``stat`` at ``key``."""
        memo = self._memo[stat]
        v = memo.get(key)
        if v is None:
            v = memo[key] = to_mpf(value)
        return v


class _Context:
    """Per-run caches: panels (or the failure building one), envelopes,
    P-checks."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        self._panel: dict = {}
        self._d2_terms: dict = {}
        self._pcheck: dict = {}
        self._envelope: dict = {}

    def d2_terms(self, fn: TestFunction):
        """The nonzero terms of f'' for a polynomial."""
        if fn.id not in self._d2_terms:
            d2 = poly_derivative_coeffs(fn.poly_coeffs, 2)
            self._d2_terms[fn.id] = _poly_terms(d2)
        return self._d2_terms[fn.id]

    def panel(self, fn: TestFunction, domain: Interval, kind: str) -> _Panel:
        """The cached panel; a build that failed raises its OracleError
        again, without building the panel anew."""
        key = (kind, fn.id, domain.lo, domain.hi)
        p = self._panel.get(key)
        if p is None:
            try:
                p = _Panel(self, fn, domain, kind)
            except OracleError as exc:
                p = exc
            self._panel[key] = p
        if isinstance(p, OracleError):
            raise p.with_traceback(None)
        return p

    def envelope(self, fn: TestFunction, domain: Interval) -> bounds.DerivativeEnvelope:
        key = (fn.id, domain.lo, domain.hi)
        if key not in self._envelope:
            xs = np.linspace(domain.lo, domain.hi, 257)
            d2v = _sample(fn.d2, xs)
            if not np.all(np.isfinite(d2v)):
                raise OracleError(f"d2 of {fn.id} is non-finite or raised")
            sup_d4 = None
            if fn.d4 is not None:
                d4v = _sample(fn.d4, xs)
                if not np.all(np.isfinite(d4v)):
                    raise OracleError(f"d4 of {fn.id} is non-finite or raised")
                sup_d4 = float(np.max(np.abs(d4v)))
            self._envelope[key] = bounds.DerivativeEnvelope(
                sup_abs_d2=float(np.max(np.abs(d2v))),
                lower_d2=float(np.min(d2v)),
                upper_d2=float(np.max(d2v)),
                sup_abs_d4=sup_d4,
            )
        return self._envelope[key]

    def pconvex(self, fn: TestFunction, domain: Interval, q: float, of: str):
        """P-convexity of |d2|^q ('d2') or of f itself ('f'). Returns the
        boolean outcome, or None when the scan was undefined."""
        key = (fn.id, of, float(q), domain.lo, domain.hi)
        if key not in self._pcheck:
            if of == "f":
                g = fn.f
            elif q == 1.0:
                g = lambda x, _d2=fn.d2: np.abs(_d2(x))  # noqa: E731
            else:
                g = lambda x, _d2=fn.d2, _q=q: np.abs(_d2(x)) ** _q  # noqa: E731
            rep = check_p_convex(g, domain, self.config.pconvex_grid)
            self._pcheck[key] = None if rep.status == "undefined" else rep.passed
        return self._pcheck[key]

    def convex(self, fn: TestFunction, domain: Interval) -> bool:
        env = self.envelope(fn, domain)
        return env.lower_d2 >= -1e-12 * (1.0 + abs(env.upper_d2))


def _monomial_order(fn: TestFunction) -> Optional[int]:
    """n when f is exactly x^n, else None."""
    if fn.poly_coeffs is None:
        return None
    nz = [k for k, c in enumerate(fn.poly_coeffs) if c != 0]
    if len(nz) != 1 or fn.poly_coeffs[nz[0]] != 1:
        return None
    return nz[0]


# ---------------------------------------------------------------------------
# Block evaluation
# ---------------------------------------------------------------------------
#
# A side function returns the candidate inequalities (lhs, rhs) of one claim
# on one panel, in the panel's number type.  A two-sided enclosure returns
# both halves; the record keeps the half with the smaller float margin.


def _lambda_sides(claim: BoundClaim, p: _Panel, lam, q):
    """|F(lam)| against the theorem 5/6, corollary or uniform-M bound; a
    special-means proposition is the corollary bound of its rule for x^n."""
    if p.exact:
        lam = _EXACT_LAMBDA[claim.id] if claim.id in _EXACT_LAMBDA else Fraction(lam)
    fam = claim.family
    if fam == "thm5":
        rhs = bounds.bound_theorem5(p.domain, lam, p.ends)
    elif fam == "corm":
        q = 1.0 if q is None else q
        rhs = bounds.bound_bounded_m(
            claim.rule, p.domain, q, p.env, claim.form, claim.variant
        )
    else:  # thm6, and the corollaries and propositions at their rule's lam
        rhs = p.theorem6(lam, q, claim.variant)
    return ((p.lhs(lam, isinstance(rhs, mpmath.mpf)), rhs),)


def _hh_sides(claim: BoundClaim, p: _Panel, lam, q):
    """f(m) <= avg(f) <= (f(a)+f(b))/2, doubled where f is a P-function."""
    fa, fm, fb, avg = p.samples
    if claim.family == "hh":
        return ((fm, avg), (avg, (fa + fb) / 2))
    return ((fm, 2 * avg), (2 * avg, 2 * (fa + fb)))


def _envelope_sides(claim: BoundClaim, p: _Panel, lam, q):
    """The midpoint or trapezoid gap inside its f''-range enclosure."""
    if claim.rule == "midpoint":
        gap = functionals._gap_left(p.samples)
    else:
        gap = functionals._gap_right(p.samples)
    lo_b, hi_b = bounds.bound_classical(claim.rule, p.domain, p.env)
    return ((lo_b, gap), (gap, hi_b))


def _simpson4_sides(claim: BoundClaim, p: _Panel, lam, q):
    """|Simpson deviation| against sup|f''''| (b-a)^p / 2880."""
    lhs = abs(functionals._simpson_value(p.samples))
    return ((lhs, bounds.bound_classical("simpson", p.domain, p.env, claim.p)),)


_SIDES = {
    "thm5": _lambda_sides,
    "thm6": _lambda_sides,
    "cor": _lambda_sides,
    "corm": _lambda_sides,
    "prop": _lambda_sides,
    "hh": _hh_sides,
    "hh-p": _hh_sides,
    "envelope": _envelope_sides,
    "simpson4": _simpson4_sides,
}

# The exact lam of each claim that fixes lam at its rule's value.
_EXACT_LAMBDA = {
    c.id: bounds.RULE_LAMBDA_EXACT[c.rule or means._PROP_RULES[c.prop_idx - 1]]
    for c in _LEDGER.values()
    if c.fixed_lambda is not None
}


def _order_value(v):
    """A lam or q as the canonical record order compares it (None first)."""
    return -1.0 if v is None else v


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

    The hypothesis is checked once per q.  The sides are evaluated in
    floats first, and a comfortable 'holds' is accepted there.  Every other
    margin is re-derived by the same side function, inside one 50-digit
    context per block, on the panel's exact values (polynomials) or else
    on the refined average.  The propositions, stated for x^n, go to the
    exact panel directly.  An oracle failure makes the record it meets
    'undefined'.
    """
    def rec(lam, q, status, lhs=None, rhs=None, margin=None, exact=False):
        return VerificationRecord(
            claim.id, fn.id, domain.lo, domain.hi, lam, q,
            lhs, rhs, margin, status, exact,
        )

    if not fn.domain.contains(domain):
        return [rec(lam, q, "hypothesis_failed") for lam in lams for q in qs]
    unmet = {}
    for q in qs:
        try:
            ok = _hypothesis(claim, fn, domain, q, ctx)
        except OracleError:
            ok = None
        if not ok:
            unmet[q] = "undefined" if ok is None else "hypothesis_failed"

    sides = _SIDES[claim.family]
    tol, eq_tol = ctx.config.tol, ctx.config.eq_tol
    float_first = claim.family != "prop"
    out: list = []
    pending = []  # (record index, lam, q, side index) left to confirm
    p = None
    for lam in lams:
        for q in qs:
            if q in unmet:
                out.append(rec(lam, q, unmet[q]))
                continue
            i = 0
            if float_first:
                try:
                    p = p or ctx.panel(fn, domain, "float")
                    pairs = sides(claim, p, lam, q)
                except OracleError:
                    out.append(rec(lam, q, "undefined"))
                    continue
                if len(pairs) > 1:
                    m0, m1 = (rhs - lhs for lhs, rhs in pairs)
                    i = 0 if m0 <= m1 else 1
                verdict = classify(*pairs[i], tol, eq_tol)
                if verdict[0] == "holds":
                    out.append(rec(lam, q, *verdict))
                    continue
            pending.append((len(out), lam, q, i))
            out.append(None)

    if pending:
        exact = fn.poly_coeffs is not None
        p = None
        with mpmath.workdps(50):
            for k, lam, q, i in pending:
                try:
                    p = p or ctx.panel(fn, domain, "exact" if exact else "refined")
                    verdict = classify(*sides(claim, p, lam, q)[i], tol, eq_tol)
                except OracleError:
                    verdict = ("undefined",)
                if verdict[0] == "undefined":
                    out[k] = rec(lam, q, "undefined")
                else:
                    out[k] = rec(lam, q, *verdict, exact)
    return out


def _hypothesis(
    claim: BoundClaim,
    fn: TestFunction,
    domain: Interval,
    q: Optional[float],
    ctx: _Context,
):
    fam = claim.family
    if fam == "thm5":
        return ctx.pconvex(fn, domain, 1.0, "d2")
    if fam in ("thm6", "cor", "corm"):
        return ctx.pconvex(fn, domain, q if q is not None else 1.0, "d2")
    if fam == "hh":
        return ctx.convex(fn, domain)
    if fam == "hh-p":
        return ctx.pconvex(fn, domain, 1.0, "f")
    if fam == "envelope":
        return True
    if fam == "simpson4":
        return fn.d4 is not None
    if fam == "prop":
        n = _monomial_order(fn)
        return (
            n is not None
            and n not in (-1, 0)
            and abs(n * (n - 1)) >= 3
            and domain.lo > 0
        )
    raise ValueError(f"unknown claim family {fam!r}")


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
        return list(reg.values())
    out = []
    for fid in ids:
        if fid not in reg:
            raise KeyError(
                f"unknown function id {fid!r}; known ids: {', '.join(reg)}"
            )
        out.append(reg[fid])
    return out


class CampaignStream:
    """A campaign evaluated as it is read.

    Iterating yields the records of every (claim, function, interval,
    lambda, q) combination in canonical order (claim, function, a, b,
    lambda, q): one block per claim on one (function, interval), with
    claims and functions taken by id and intervals in sorted order.
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
        intervals += sample_intervals(config)
        ctx = _Context(config)
        entries = {}  # claim id -> its summary entry, in config order
        for c in self._claims:
            entries.setdefault(c.id, {
                "provenance": c.provenance,
                "records": 0,
                "by_status": dict.fromkeys(STATUSES, 0),
                "min_margin": None,
            })
        # Equal keys (a repeated id or interval) make one run, whose
        # lam-major blocks a stable sort on (lam, q) puts in canonical order.
        fn_runs, interval_runs = _runs(self._fns, _BY_ID), _runs(intervals, None)
        for claims in _runs(self._claims, _BY_ID):
            claim = claims[0]
            lams = tuple(config.lambda_grid) if claim.uses_lambda else (claim.fixed_lambda,)
            qs = tuple(config.q_grid) if claim.uses_q else (None,)
            for fns in fn_runs:
                for ivs in interval_runs:
                    block = sorted(
                        itertools.chain.from_iterable(
                            _evaluate_block(claim, fn, Interval(a, b), lams, qs, ctx)
                            for _ in claims
                            for fn in fns
                            for a, b in ivs
                        ),
                        key=_grid_key,
                    )
                    _count(entries[claim.id], block)
                    yield block
        self.summary.update(_summary(entries))


_BY_ID = attrgetter("id")


def _grid_key(r: VerificationRecord):
    return _order_value(r.lam), _order_value(r.q)


def _runs(items, key) -> list[list]:
    """``items`` stably sorted by ``key``, in runs of equal keys."""
    return [list(run) for _, run in itertools.groupby(sorted(items, key=key), key)]


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
    """
    claim = get_claim(claim_id)
    fns = resolve_functions(search.functions, registry)
    if not fns:
        return CounterexampleSearch(record=None, trials=0)
    rng = random.Random(search.seed)
    trials = search.trials if search.trials > 0 else 500
    lo, hi = search.interval_range
    ctx = _Context(search)

    def attempt(fn, a, b, lam, q) -> Optional[VerificationRecord]:
        (r,) = _evaluate_block(claim, fn, Interval(a, b), (lam,), (q,), ctx)
        return r if r.status == "violated" else None

    for t in range(1, trials + 1):
        fn = rng.choice(fns)
        a = rng.uniform(lo, hi - search.min_width)
        b = rng.uniform(a + search.min_width, hi)
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
