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
per-claim summary.  Reported violations are re-verified on the exact
rational path (polynomials, and the means checks at 50-digit precision) or
by re-integration at tightened tolerance before they reach the report.
Runs are deterministic for a fixed config.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

import mpmath
import numpy as np

from . import bounds, functionals, means, oracle
from .corpus import (
    GridSpec,
    Interval,
    TestFunction,
    check_p_convex,
    corpus_standard,
    _sample,
)
from .oracle import OracleError, poly_derivative_coeffs, poly_eval_exact, to_mpf
from .records import VerificationRecord

__all__ = [
    "BoundClaim",
    "CampaignConfig",
    "CampaignResult",
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


def _cor_claims() -> list[BoundClaim]:
    out = []
    for num, rule in ((1, "midpoint"), (2, "trapezoid"), (3, "simpson")):
        for variant in ("stated", "derived"):
            prov = STATED_ONLY if variant == "stated" else PROOF_BACKED
            out.append(
                BoundClaim(
                    id=f"cor{num}-{variant}",
                    description=f"{rule} power-mean bound ({variant} constant)",
                    provenance=prov,
                    lhs_spec="abs(functional_lambda)",
                    rhs_spec="bound_corollary",
                    hypothesis="check_p_convex(|d2|^q)",
                    family="cor",
                    rule=rule,
                    variant=variant,
                    fixed_lambda=bounds.RULE_LAMBDA[rule],
                    uses_q=True,
                )
            )
    return out


def _corm_claims() -> list[BoundClaim]:
    out = []
    for num, rule in ((4, "midpoint"), (5, "trapezoid"), (8, "simpson")):
        for variant in ("stated", "derived"):
            prov = STATED_ONLY if variant == "stated" else PROOF_BACKED
            out.append(
                BoundClaim(
                    id=f"cor{num}-{variant}",
                    description=f"{rule} uniform-M bound with 2^(1/q) ({variant})",
                    provenance=prov,
                    lhs_spec="abs(functional_lambda)",
                    rhs_spec="bound_bounded_m",
                    hypothesis="check_p_convex(|d2|^q)",
                    family="corm",
                    rule=rule,
                    variant=variant,
                    form="with_q",
                    fixed_lambda=bounds.RULE_LAMBDA[rule],
                    uses_q=True,
                )
            )
        # The relaxed forms (2^(1/q) <= 2) coincide with the sharp kernel
        # bounds M (b-a)^2 * int|k|, hence proof-backed.
        out.append(
            BoundClaim(
                id=f"cor{num}-relaxed",
                description=f"{rule} uniform-M bound, q-free form",
                provenance=PROOF_BACKED,
                lhs_spec="abs(functional_lambda)",
                rhs_spec="bound_bounded_m",
                hypothesis="check_p_convex(|d2|)",
                family="corm",
                rule=rule,
                variant="stated",
                form="relaxed",
                fixed_lambda=bounds.RULE_LAMBDA[rule],
            )
        )
    return out


def _prop_claims() -> list[BoundClaim]:
    out = []
    for idx in (1, 2, 3):
        for variant in ("stated", "derived"):
            prov = STATED_ONLY if variant == "stated" else PROOF_BACKED
            out.append(
                BoundClaim(
                    id=f"prop{idx}-{variant}",
                    description=f"special-means inequality {idx} ({variant} constant)",
                    provenance=prov,
                    lhs_spec="abs(mean combination)",
                    rhs_spec="check_proposition",
                    hypothesis="f = x^n, |n(n-1)| >= 3, 0 < a < b",
                    family="prop",
                    prop_idx=idx,
                    variant=variant,
                    fixed_lambda={1: 0.0, 2: 1.0, 3: 1.0 / 3.0}[idx],
                    uses_q=True,
                )
            )
    return out


def ledger_standard() -> tuple[BoundClaim, ...]:
    """The full claims ledger; power-mean family claims appear twice
    (stated and derived constants)."""
    claims: list[BoundClaim] = [
        BoundClaim(
            id="thm5",
            description="endpoint-sum deviation bound for P-convex |f''|",
            provenance=PROOF_BACKED,
            lhs_spec="abs(functional_lambda)",
            rhs_spec="bound_theorem5",
            hypothesis="check_p_convex(|d2|)",
            family="thm5",
            uses_lambda=True,
        ),
    ]
    for variant in ("stated", "derived"):
        prov = STATED_ONLY if variant == "stated" else PROOF_BACKED
        claims.append(
            BoundClaim(
                id=f"thm6-{variant}",
                description=f"power-mean deviation bound ({variant} constant)",
                provenance=prov,
                lhs_spec="abs(functional_lambda)",
                rhs_spec="bound_theorem6",
                hypothesis="check_p_convex(|d2|^q)",
                family="thm6",
                variant=variant,
                uses_lambda=True,
                uses_q=True,
            )
        )
    claims.extend(_cor_claims())
    claims.extend(_corm_claims())
    claims.extend(
        [
            BoundClaim(
                id="hh",
                description="average-value enclosure for convex f",
                provenance=PROOF_BACKED,
                lhs_spec="hh_gap_left/hh_gap_right",
                rhs_spec="0 <= gap",
                hypothesis="f convex on [a, b]",
                family="hh",
            ),
            BoundClaim(
                id="hh-p",
                description="doubled average-value enclosure for P-functions",
                provenance=PROOF_BACKED,
                lhs_spec="hh_p_check sides",
                rhs_spec="hh_p_check sides",
                hypothesis="check_p_convex(f)",
                family="hh-p",
            ),
            BoundClaim(
                id="mid-envelope",
                description="two-sided midpoint-gap enclosure from f'' range",
                provenance=PROOF_BACKED,
                lhs_spec="hh_gap_left",
                rhs_spec="bound_classical(midpoint)",
                hypothesis="f twice differentiable",
                family="envelope",
                rule="midpoint",
            ),
            BoundClaim(
                id="trap-envelope",
                description="two-sided trapezoid-gap enclosure from f'' range",
                provenance=PROOF_BACKED,
                lhs_spec="hh_gap_right",
                rhs_spec="bound_classical(trapezoid)",
                hypothesis="f twice differentiable",
                family="envelope",
                rule="trapezoid",
            ),
            BoundClaim(
                id="simpson-4th-p4",
                description="classical fourth-derivative Simpson bound (quartic width)",
                provenance=PROOF_BACKED,
                lhs_spec="abs(simpson_deviation)",
                rhs_spec="bound_classical(simpson, p=4)",
                hypothesis="f has d4",
                family="simpson4",
                rule="simpson",
                p=4,
            ),
            BoundClaim(
                id="simpson-4th-p2",
                description="quadratic-width variant of the Simpson bound",
                provenance=STATED_ONLY,
                lhs_spec="abs(simpson_deviation)",
                rhs_spec="bound_classical(simpson, p=2)",
                hypothesis="f has d4",
                family="simpson4",
                rule="simpson",
                p=2,
            ),
        ]
    )
    claims.extend(_prop_claims())
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


class _Context:
    """Per-run caches: averages, endpoint data, envelopes, P-checks."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        self._avg: dict = {}
        self._avg_refined: dict = {}
        self._pcheck: dict = {}
        self._envelope: dict = {}

    def avg(self, fn: TestFunction, domain: Interval) -> float:
        key = (fn.id, domain.lo, domain.hi)
        if key not in self._avg:
            self._avg[key] = functionals.average_value(
                fn, domain, self.config.oracle_tol
            )
        return self._avg[key]

    def avg_refined(self, fn: TestFunction, domain: Interval) -> float:
        """Average recomputed by the adaptive oracle at tightened tolerance,
        bypassing any closed-form antiderivative."""
        key = (fn.id, domain.lo, domain.hi)
        if key not in self._avg_refined:
            res = oracle.integrate(fn.f, domain, self.config.oracle_tol / 10.0)
            self._avg_refined[key] = res.value / domain.width
        return self._avg_refined[key]

    def endpoints(self, fn: TestFunction, domain: Interval) -> tuple[float, float]:
        return (
            abs(float(fn.d2(domain.lo))),
            abs(float(fn.d2(domain.hi))),
        )

    def endpoints_exact(self, fn: TestFunction, domain) -> tuple[Fraction, Fraction]:
        d2c = poly_derivative_coeffs(fn.poly_coeffs, 2)
        return (
            abs(poly_eval_exact(d2c, Fraction(domain.lo))),
            abs(poly_eval_exact(d2c, Fraction(domain.hi))),
        )

    def envelope(self, fn: TestFunction, domain: Interval) -> dict:
        key = (fn.id, domain.lo, domain.hi)
        if key not in self._envelope:
            xs = np.linspace(domain.lo, domain.hi, 257)
            d2v = _sample(fn.d2, xs)
            if not np.all(np.isfinite(d2v)):
                raise OracleError(f"non-finite d2 while profiling {fn.id}")
            env = {
                "sup_abs_d2": float(np.max(np.abs(d2v))),
                "lower_d2": float(np.min(d2v)),
                "upper_d2": float(np.max(d2v)),
                "sup_abs_d4": None,
            }
            if fn.d4 is not None:
                d4v = _sample(fn.d4, xs)
                if not np.all(np.isfinite(d4v)):
                    raise OracleError(f"non-finite d4 while profiling {fn.id}")
                env["sup_abs_d4"] = float(np.max(np.abs(d4v)))
            self._envelope[key] = env
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
        return env["lower_d2"] >= -1e-12 * (1.0 + abs(env["upper_d2"]))


def _monomial_order(fn: TestFunction) -> Optional[int]:
    if fn.poly_coeffs is None:
        return None
    nz = [k for k, c in enumerate(fn.poly_coeffs) if c != 0]
    if len(nz) != 1:
        return None
    return nz[0]


# ---------------------------------------------------------------------------
# Per-combination evaluation
# ---------------------------------------------------------------------------


def _decide(
    lhs_f: float,
    rhs_f: float,
    tol: float,
    eq_tol: float,
    exact_pair: Optional[Callable[[], tuple[Fraction, Fraction]]] = None,
    mp_pair: Optional[Callable[[], tuple[mpmath.mpf, mpmath.mpf]]] = None,
    refine_pair: Optional[Callable[[], tuple[float, float]]] = None,
) -> tuple[str, float, float, float, bool]:
    """Status decision with mandatory confirmation of suspicious margins.

    Returns (status, lhs, rhs, margin, exact).  A margin that crosses the
    violation threshold, or sits inside the equality band, is re-derived on
    the best available path: exact rationals, 50-digit floats, or a refined
    numerical evaluation.  Comfortable margins are accepted as 'holds'
    straight from the double-precision values.
    """
    scale = max(1.0, abs(lhs_f), abs(rhs_f))
    margin = rhs_f - lhs_f
    if margin >= -tol * scale and abs(margin) > eq_tol * scale:
        return "holds", lhs_f, rhs_f, margin, False

    if exact_pair is not None:
        lhs_e, rhs_e = exact_pair()
        margin_e = rhs_e - lhs_e
        lhs_f, rhs_f, margin_f = float(lhs_e), float(rhs_e), float(margin_e)
        scale = max(1.0, abs(lhs_f), abs(rhs_f))
        if margin_f < -tol * scale:
            status = "violated"
        elif margin_e == 0:
            status = "equality"
        else:
            status = "holds"
        return status, lhs_f, rhs_f, margin_f, True

    if mp_pair is not None:
        with mpmath.workdps(50):
            lhs_m, rhs_m = mp_pair()
            margin_m = rhs_m - lhs_m
            lhs_f, rhs_f, margin_f = float(lhs_m), float(rhs_m), float(margin_m)
        scale = max(1.0, abs(lhs_f), abs(rhs_f))
        if margin_f < -tol * scale:
            status = "violated"
        elif abs(margin_f) <= eq_tol * scale:
            status = "equality"
        else:
            status = "holds"
        return status, lhs_f, rhs_f, margin_f, True

    if refine_pair is not None:
        lhs_f, rhs_f = refine_pair()
        margin = rhs_f - lhs_f
        scale = max(1.0, abs(lhs_f), abs(rhs_f))

    if margin < -tol * scale:
        status = "violated"
    elif abs(margin) <= eq_tol * scale:
        status = "equality"
    else:
        status = "holds"
    return status, lhs_f, rhs_f, margin, False


def _functional_abs_exact(fn: TestFunction, domain: Interval, lam) -> Fraction:
    return abs(functionals.functional_lambda_exact(fn, domain, lam))


def _evaluate_combo(
    claim: BoundClaim,
    fn: TestFunction,
    domain: Interval,
    lam: Optional[float],
    q: Optional[float],
    ctx: _Context,
) -> VerificationRecord:
    cfg = ctx.config

    def rec(status, lhs=None, rhs=None, margin=None, exact=False):
        return VerificationRecord(
            claim=claim.id,
            function=fn.id,
            a=domain.lo,
            b=domain.hi,
            lam=lam,
            q=q,
            lhs=lhs,
            rhs=rhs,
            margin=margin,
            status=status,
            exact=exact,
        )

    if not fn.domain.contains(domain):
        return rec("hypothesis_failed")

    try:
        ok = _hypothesis(claim, fn, domain, q, ctx)
        if ok is None:
            return rec("undefined")
        if not ok:
            return rec("hypothesis_failed")

        if claim.family == "prop":
            n = _monomial_order(fn)
            inner = means.check_proposition(
                claim.prop_idx,
                Fraction(domain.lo),
                Fraction(domain.hi),
                n,
                q if q is not None else 1.0,
                claim.variant,
                tol=cfg.tol,
                eq_tol=cfg.eq_tol,
            )
            return VerificationRecord(
                claim=claim.id,
                function=fn.id,
                a=domain.lo,
                b=domain.hi,
                lam=lam,
                q=q,
                lhs=inner.lhs,
                rhs=inner.rhs,
                margin=inner.margin,
                status=inner.status,
                exact=inner.exact,
            )

        lhs_f, rhs_f, exact_pair, mp_pair, refine_pair = _sides(
            claim, fn, domain, lam, q, ctx
        )
    except OracleError:
        return rec("undefined")

    status, lhs_o, rhs_o, margin_o, exact = _decide(
        lhs_f,
        rhs_f,
        cfg.tol,
        cfg.eq_tol,
        exact_pair=exact_pair,
        mp_pair=mp_pair,
        refine_pair=refine_pair,
    )
    return rec(status, lhs_o, rhs_o, margin_o, exact)


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


def _sides(claim, fn, domain, lam, q, ctx):
    """Float lhs/rhs for one combination plus confirmation closures."""
    cfg = ctx.config
    fam = claim.family
    is_poly = fn.poly_coeffs is not None

    if fam in ("thm5", "thm6", "cor", "corm"):
        lam_f = lam if lam is not None else claim.fixed_lambda
        lam_exact = (
            bounds.RULE_LAMBDA_EXACT[claim.rule]
            if claim.rule is not None
            else Fraction(lam_f)
        )
        avg = ctx.avg(fn, domain)
        lhs = abs(functionals.functional_lambda(fn, domain, lam_f, avg).value)
        e = bounds.EndpointData(*ctx.endpoints(fn, domain))

        if fam == "thm5":
            rhs = bounds.bound_theorem5(domain, lam_f, e)
        elif fam == "thm6":
            rhs = bounds.bound_theorem6(domain, lam_f, q, e, claim.variant)
        elif fam == "cor":
            rhs = bounds.bound_corollary(claim.rule, domain, q, e, claim.variant)
        else:  # corm
            env = bounds.DerivativeEnvelope(
                sup_abs_d2=ctx.envelope(fn, domain)["sup_abs_d2"]
            )
            rhs = bounds.bound_bounded_m(
                claim.rule,
                domain,
                q if q is not None else 1.0,
                env,
                claim.form,
                claim.variant,
            )

        exact_pair = mp_pair = refine_pair = None
        if is_poly:
            q_is_one = q is None or q == 1.0

            def exact_rational():
                lhs_e = _functional_abs_exact(fn, domain, lam_exact)
                if fam == "corm":
                    m_sup = ctx.envelope(fn, domain)["sup_abs_d2"]
                    rhs_e = bounds.bound_bounded_m_exact(
                        claim.rule, domain, 1, m_sup, claim.form, claim.variant
                    )
                else:
                    ma, mb = ctx.endpoints_exact(fn, domain)
                    if fam == "thm5":
                        rhs_e = bounds.bound_theorem5_exact(domain, lam_exact, ma, mb)
                    else:
                        rhs_e = bounds.bound_theorem6_exact(
                            domain, lam_exact, 1, ma, mb, claim.variant
                        )
                return lhs_e, rhs_e

            def exact_mp():
                lhs_e = _functional_abs_exact(fn, domain, lam_exact)
                if fam == "corm":
                    m_sup = Fraction(ctx.envelope(fn, domain)["sup_abs_d2"])
                    denom = {"midpoint": 48, "trapezoid": 24, "simpson": 162}[
                        claim.rule
                    ]
                    if claim.variant == "derived":
                        denom //= 2
                    width = Fraction(domain.hi) - Fraction(domain.lo)
                    rhs_m = (
                        to_mpf(m_sup * width**2) / denom * 2 ** (1 / to_mpf(q))
                    )
                else:
                    ma, mb = ctx.endpoints_exact(fn, domain)
                    rhs_m = bounds.bound_theorem6_mp(
                        domain, lam_exact, q, ma, mb, claim.variant
                    )
                return to_mpf(lhs_e), rhs_m

            exact_pair = exact_rational if q_is_one else None
            mp_pair = None if q_is_one else exact_mp
        else:

            def refine():
                avg_r = ctx.avg_refined(fn, domain)
                lhs_r = abs(
                    functionals.functional_lambda(fn, domain, lam_f, avg_r).value
                )
                return lhs_r, rhs

            refine_pair = refine
        return lhs, rhs, exact_pair, mp_pair, refine_pair

    if fam in ("hh", "hh-p"):
        avg = ctx.avg(fn, domain)
        fm = float(fn.f(domain.midpoint))
        fa, fb = float(fn.f(domain.lo)), float(fn.f(domain.hi))
        if fam == "hh":
            sides = [(fm, avg), (avg, (fa + fb) / 2.0)]
        else:
            sides = [(fm, 2.0 * avg), (2.0 * avg, 2.0 * (fa + fb))]
        margins = [r - l for l, r in sides]
        side = 0 if margins[0] <= margins[1] else 1
        lhs, rhs = sides[side]

        exact_pair = refine_pair = None
        if is_poly:

            def exact_rational(side=side):
                avg_e = functionals.average_value_exact(fn, domain)
                lo, hi = Fraction(domain.lo), Fraction(domain.hi)
                fm_e = poly_eval_exact(fn.poly_coeffs, (lo + hi) / 2)
                fa_e = poly_eval_exact(fn.poly_coeffs, lo)
                fb_e = poly_eval_exact(fn.poly_coeffs, hi)
                if fam == "hh":
                    sides_e = [(fm_e, avg_e), (avg_e, (fa_e + fb_e) / 2)]
                else:
                    sides_e = [(fm_e, 2 * avg_e), (2 * avg_e, 2 * (fa_e + fb_e))]
                return sides_e[side]

            exact_pair = exact_rational
        else:

            def refine(side=side):
                avg_r = ctx.avg_refined(fn, domain)
                if fam == "hh":
                    sides_r = [(fm, avg_r), (avg_r, (fa + fb) / 2.0)]
                else:
                    sides_r = [(fm, 2.0 * avg_r), (2.0 * avg_r, 2.0 * (fa + fb))]
                return sides_r[side]

            refine_pair = refine
        return lhs, rhs, exact_pair, None, refine_pair

    if fam == "envelope":
        avg = ctx.avg(fn, domain)
        env = ctx.envelope(fn, domain)
        w = domain.width
        if claim.rule == "midpoint":
            gap = avg - float(fn.f(domain.midpoint))
            lo_b = env["lower_d2"] * w**2 / 24.0
            hi_b = env["upper_d2"] * w**2 / 24.0
        else:
            fa, fb = float(fn.f(domain.lo)), float(fn.f(domain.hi))
            gap = (fa + fb) / 2.0 - avg
            half_sq = (w / 2.0) ** 2
            lo_b = env["lower_d2"] / 3.0 * half_sq
            hi_b = env["upper_d2"] / 3.0 * half_sq
        sides = [(lo_b, gap), (gap, hi_b)]
        margins = [r - l for l, r in sides]
        side = 0 if margins[0] <= margins[1] else 1
        lhs, rhs = sides[side]

        exact_pair = refine_pair = None
        if is_poly:

            def exact_rational(side=side):
                lo, hi = Fraction(domain.lo), Fraction(domain.hi)
                we = hi - lo
                if claim.rule == "midpoint":
                    gap_e = functionals.hh_gap_left_exact(fn, domain)
                    lo_e = Fraction(env["lower_d2"]) * we**2 / 24
                    hi_e = Fraction(env["upper_d2"]) * we**2 / 24
                else:
                    gap_e = functionals.hh_gap_right_exact(fn, domain)
                    half_sq = (we / 2) ** 2
                    lo_e = Fraction(env["lower_d2"]) / 3 * half_sq
                    hi_e = Fraction(env["upper_d2"]) / 3 * half_sq
                sides_e = [(lo_e, gap_e), (gap_e, hi_e)]
                return sides_e[side]

            exact_pair = exact_rational
        else:

            def refine(side=side):
                avg_r = ctx.avg_refined(fn, domain)
                if claim.rule == "midpoint":
                    gap_r = avg_r - float(fn.f(domain.midpoint))
                else:
                    fa, fb = float(fn.f(domain.lo)), float(fn.f(domain.hi))
                    gap_r = (fa + fb) / 2.0 - avg_r
                sides_r = [(lo_b, gap_r), (gap_r, hi_b)]
                return sides_r[side]

            refine_pair = refine
        return lhs, rhs, exact_pair, None, refine_pair

    if fam == "simpson4":
        avg = ctx.avg(fn, domain)
        fm = float(fn.f(domain.midpoint))
        fa, fb = float(fn.f(domain.lo)), float(fn.f(domain.hi))
        lhs = abs(((fa + fb) / 2.0 + 2.0 * fm) / 3.0 - avg)
        sup_d4 = ctx.envelope(fn, domain)["sup_abs_d4"]
        rhs = sup_d4 * domain.width**claim.p / 2880.0

        exact_pair = refine_pair = None
        if is_poly:

            def exact_rational():
                lhs_e = abs(functionals.simpson_deviation_exact(fn, domain))
                rhs_e = bounds.bound_classical_exact(
                    "simpson", domain, sup_abs_d4=sup_d4, p=claim.p
                )
                return lhs_e, rhs_e

            exact_pair = exact_rational
        else:

            def refine():
                avg_r = ctx.avg_refined(fn, domain)
                lhs_r = abs(((fa + fb) / 2.0 + 2.0 * fm) / 3.0 - avg_r)
                return lhs_r, rhs

            refine_pair = refine
        return lhs, rhs, exact_pair, None, refine_pair

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


def run_campaign(
    config: CampaignConfig,
    registry: Optional[Mapping[str, TestFunction]] = None,
) -> CampaignResult:
    """Evaluate every (claim, function, interval, lambda, q) combination.

    Unmet hypotheses yield 'hypothesis_failed' records, oracle failures
    'undefined' records; neither aborts the run.  Records are merged in the
    canonical sort order (claim, function, a, b, lambda, q) so any future
    parallel evaluation cannot change the output.
    """
    claims = resolve_claims(config.claims)
    fns = resolve_functions(config.functions, registry)
    intervals = [tuple(map(float, iv)) for iv in config.intervals]
    intervals += sample_intervals(config)

    ctx = _Context(config)
    records: list[VerificationRecord] = []
    for claim in claims:
        lams = (
            list(config.lambda_grid)
            if claim.uses_lambda
            else [claim.fixed_lambda]
        )
        qs = list(config.q_grid) if claim.uses_q else [None]
        for fn in fns:
            for a, b in intervals:
                domain = Interval(a, b)
                for lam in lams:
                    for q in qs:
                        records.append(
                            _evaluate_combo(claim, fn, domain, lam, q, ctx)
                        )

    records.sort(key=VerificationRecord.sort_key)
    summary = summarize(records, claims)
    return CampaignResult(config=config, records=tuple(records), summary=summary)


def summarize(records, claims) -> dict:
    by_status = {s: 0 for s in ("holds", "equality", "violated", "hypothesis_failed", "undefined")}
    per_claim: dict = {}
    for c in claims:
        per_claim[c.id] = {
            "provenance": c.provenance,
            "records": 0,
            "by_status": dict.fromkeys(by_status, 0),
            "min_margin": None,
        }
    for r in records:
        by_status[r.status] += 1
        entry = per_claim.setdefault(
            r.claim,
            {
                "provenance": get_claim(r.claim).provenance,
                "records": 0,
                "by_status": dict.fromkeys(by_status, 0),
                "min_margin": None,
            },
        )
        entry["records"] += 1
        entry["by_status"][r.status] += 1
        if r.margin is not None:
            if entry["min_margin"] is None or r.margin < entry["min_margin"]:
                entry["min_margin"] = r.margin

    violated = sorted(
        {r.claim for r in records if r.status == "violated"}
    )
    prov = {cid: per_claim[cid]["provenance"] for cid in violated}
    return {
        "total": len(records),
        "by_status": by_status,
        "claims": per_claim,
        "violated_stated_only": [c for c in violated if prov[c] == STATED_ONLY],
        "violated_proof_backed": [c for c in violated if prov[c] == PROOF_BACKED],
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
        domain = Interval(a, b)
        r = _evaluate_combo(claim, fn, domain, lam, q, ctx)
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
