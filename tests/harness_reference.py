"""Per-record campaign evaluation, kept as a reference for block evaluation.

This is how campaigns were evaluated before they went block by block over
cached panel statistics: every (claim, function, interval, lam, q) record
on its own, through the public formulas of ``functionals`` and ``bounds``.
The hypothesis is checked first.  Both sides are evaluated in floats, and a
margin that is not a comfortable 'holds' is re-derived in exact rationals
(polynomials; at 50 digits where a q-th root is irrational) or with the
average re-integrated at a tenth of the oracle tolerance.  The special-means
propositions go through :func:`means.check_proposition`.

``reference_records`` and ``reference_search`` must give exactly what
``run_campaign`` and ``find_counterexample`` give, and
``reference_summary`` the summary of ``run_campaign``: it summarizes all
the records at once, after sorting them, as campaigns did before they
were streamed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import numpy as np

from hhbounds import bounds, functionals, means, oracle
from hhbounds.corpus import Interval, check_p_convex
from hhbounds.harness import (
    PROOF_BACKED,
    STATED_ONLY,
    get_claim,
    resolve_claims,
    resolve_functions,
    sample_intervals,
)
from hhbounds.oracle import (
    OracleError,
    _sample,
    poly_derivative_coeffs,
    poly_eval_exact,
)
from hhbounds.records import STATUSES, VerificationRecord, classify

PROP_RULES = ("midpoint", "trapezoid", "simpson")


class Reference:
    """Evaluates single records; caches only the P-checks and envelopes,
    which are the hypotheses' sampled inputs."""

    def __init__(self, config):
        self.config = config
        self._pcheck = {}
        self._envelope = {}

    # -- hypotheses ------------------------------------------------------

    def envelope(self, fn, domain):
        key = (fn.id, domain.lo, domain.hi)
        if key not in self._envelope:
            xs = np.linspace(domain.lo, domain.hi, 257)
            d2v = _sample(fn.d2, xs)
            if not np.all(np.isfinite(d2v)):
                raise OracleError("non-finite d2")
            sup_d4 = None
            if fn.d4 is not None:
                d4v = _sample(fn.d4, xs)
                if not np.all(np.isfinite(d4v)):
                    raise OracleError("non-finite d4")
                sup_d4 = float(np.max(np.abs(d4v)))
            self._envelope[key] = bounds.DerivativeEnvelope(
                sup_abs_d2=float(np.max(np.abs(d2v))),
                lower_d2=float(np.min(d2v)),
                upper_d2=float(np.max(d2v)),
                sup_abs_d4=sup_d4,
            )
        return self._envelope[key]

    def pconvex(self, fn, domain, q, of):
        key = (fn.id, of, float(q), domain.lo, domain.hi)
        if key not in self._pcheck:
            if of == "f":
                g = fn.f
            elif q == 1.0:
                g = lambda x: np.abs(fn.d2(x))  # noqa: E731
            else:
                g = lambda x: np.abs(fn.d2(x)) ** q  # noqa: E731
            rep = check_p_convex(g, domain, self.config.pconvex_grid)
            self._pcheck[key] = None if rep.status == "undefined" else rep.passed
        return self._pcheck[key]

    def hypothesis(self, claim, fn, domain, q):
        fam = claim.family
        if fam == "thm5":
            return self.pconvex(fn, domain, 1.0, "d2")
        if fam in ("thm6", "cor", "corm"):
            return self.pconvex(fn, domain, q if q is not None else 1.0, "d2")
        if fam == "hh":
            env = self.envelope(fn, domain)
            return env.lower_d2 >= -1e-12 * (1.0 + abs(env.upper_d2))
        if fam == "hh-p":
            return self.pconvex(fn, domain, 1.0, "f")
        if fam == "envelope":
            return True
        if fam == "simpson4":
            return fn.d4 is not None
        n = monomial_order(fn)
        return n is not None and n not in (-1, 0) and abs(n * (n - 1)) >= 3 and domain.lo > 0

    # -- sides -----------------------------------------------------------

    def samples(self, fn, domain, kind):
        """(f(a), f(m), f(b), avg) in floats ('float'), in floats with the
        refined average ('refined') or in Fractions ('exact')."""
        if kind == "exact":
            c = fn.poly_coeffs
            lo, hi = Fraction(domain.lo), Fraction(domain.hi)
            return (
                poly_eval_exact(c, lo),
                poly_eval_exact(c, (lo + hi) / 2),
                poly_eval_exact(c, hi),
                functionals.average_value_exact(fn, domain),
            )
        if kind == "refined":
            tol = self.config.oracle_tol / 10.0
            avg = oracle.integrate(fn.f, domain, tol).value / domain.width
        else:
            avg = functionals.average_value(fn, domain, self.config.oracle_tol)
        fm = float(fn.f(domain.midpoint))
        return float(fn.f(domain.lo)), fm, float(fn.f(domain.hi)), avg

    def sides(self, claim, fn, domain, lam, q, kind):
        exact = kind == "exact"
        s = self.samples(fn, domain, kind)
        fa, fm, fb, avg = s
        dom = Interval(Fraction(domain.lo), Fraction(domain.hi)) if exact else domain
        fam = claim.family
        if fam in ("hh", "hh-p"):
            if fam == "hh":
                return ((fm, avg), (avg, (fa + fb) / 2))
            return ((fm, 2 * avg), (2 * avg, 2 * (fa + fb)))
        env = None
        if fam in ("envelope", "simpson4", "corm"):
            env = self.envelope(fn, domain)
            if exact:
                d4 = env.sup_abs_d4
                env = bounds.DerivativeEnvelope(
                    Fraction(env.sup_abs_d2),
                    Fraction(env.lower_d2),
                    Fraction(env.upper_d2),
                    None if d4 is None else Fraction(d4),
                )
        if fam == "envelope":
            gap = avg - fm if claim.rule == "midpoint" else (fa + fb) / 2 - avg
            lo_b, hi_b = bounds.bound_classical(claim.rule, dom, env)
            return ((lo_b, gap), (gap, hi_b))
        if fam == "simpson4":
            lhs = abs(((fa + fb) / 2 + 2 * fm) / 3 - avg)
            return ((lhs, bounds.bound_classical("simpson", dom, env, claim.p)),)
        # the lambda family
        if exact:
            lam = bounds.RULE_LAMBDA_EXACT[claim.rule] if claim.rule else Fraction(lam)
            lhs = abs(functionals.functional_lambda_exact(fn, domain, lam))
            d2c = poly_derivative_coeffs(fn.poly_coeffs, 2)
            m_a = abs(poly_eval_exact(d2c, Fraction(domain.lo)))
            m_b = abs(poly_eval_exact(d2c, Fraction(domain.hi)))
        else:
            lhs = abs(functionals.functional_lambda(fn, domain, lam, avg).value)
            m_a, m_b = abs(float(fn.d2(domain.lo))), abs(float(fn.d2(domain.hi)))
        if fam == "thm5":
            if exact:
                return ((lhs, bounds.bound_theorem5_exact(domain, lam, m_a, m_b)),)
            rhs = bounds.bound_theorem5(domain, lam, bounds.EndpointData(m_a, m_b))
            return ((lhs, rhs),)
        if fam == "corm":
            q = 1.0 if q is None else q
            rhs = bounds.bound_bounded_m(claim.rule, dom, q, env, claim.form, claim.variant)
            return ((lhs, rhs),)
        if exact and q == 1:
            rhs = bounds.bound_theorem6_exact(domain, lam, 1, m_a, m_b, claim.variant)
        elif exact:
            rhs = bounds.bound_theorem6_mp(domain, lam, q, m_a, m_b, claim.variant)
        else:
            e = bounds.EndpointData(m_a, m_b)
            rhs = bounds.bound_theorem6(domain, lam, q, e, claim.variant)
        return ((lhs, rhs),)

    # -- one record ------------------------------------------------------

    def verdict(self, claim, fn, domain, lam, q):
        tol, eq_tol = self.config.tol, self.config.eq_tol
        pairs = self.sides(claim, fn, domain, lam, q, "float")
        margins = [rhs - lhs for lhs, rhs in pairs]
        i = 0 if margins[0] <= margins[-1] else len(pairs) - 1
        verdict = classify(*pairs[i], tol, eq_tol)
        if verdict[0] == "holds":
            return (*verdict, False)
        exact = fn.poly_coeffs is not None
        with mpmath.workdps(50):
            pairs = self.sides(claim, fn, domain, lam, q, "exact" if exact else "refined")
            return (*classify(*pairs[i], tol, eq_tol), exact)

    def record(self, claim, fn, domain, lam, q) -> VerificationRecord:
        def rec(status, lhs=None, rhs=None, margin=None, exact=False):
            return VerificationRecord(
                claim.id, fn.id, domain.lo, domain.hi, lam, q,
                lhs, rhs, margin, status, exact,
            )

        if not fn.domain.contains(domain):
            return rec("hypothesis_failed")
        try:
            ok = self.hypothesis(claim, fn, domain, q)
            if ok is None:
                return rec("undefined")
            if not ok:
                return rec("hypothesis_failed")
            if claim.family != "prop":
                verdict = self.verdict(claim, fn, domain, lam, q)
                return rec("undefined") if verdict[0] == "undefined" else rec(*verdict)
            inner = means.check_proposition(
                claim.prop_idx,
                Fraction(domain.lo),
                Fraction(domain.hi),
                monomial_order(fn),
                q if q is not None else 1.0,
                claim.variant,
                tol=self.config.tol,
                eq_tol=self.config.eq_tol,
            )
            return rec(inner.status, inner.lhs, inner.rhs, inner.margin, inner.exact)
        except OracleError:
            return rec("undefined")


def monomial_order(fn):
    """n when f is x^n."""
    if fn.poly_coeffs is None:
        return None
    nz = [k for k, c in enumerate(fn.poly_coeffs) if c != 0]
    if len(nz) != 1 or fn.poly_coeffs[nz[0]] != 1:
        return None
    return nz[0]


def reference_records(config, registry=None) -> list[VerificationRecord]:
    """Every record of the campaign, one at a time, in the canonical order."""
    ref = Reference(config)
    fns = resolve_functions(config.functions, registry)
    intervals = [tuple(map(float, iv)) for iv in config.intervals]
    intervals += sample_intervals(config)
    records = []
    for claim in resolve_claims(config.claims):
        lams = list(config.lambda_grid) if claim.uses_lambda else [claim.fixed_lambda]
        qs = list(config.q_grid) if claim.uses_q else [None]
        for fn in fns:
            for a, b in intervals:
                for lam in lams:
                    for q in qs:
                        records.append(ref.record(claim, fn, Interval(a, b), lam, q))
    records.sort(key=sort_key)
    return records


def sort_key(r: VerificationRecord) -> tuple:
    """The canonical record order: claim, function, a, b, lambda, q, with
    a missing lambda or q first."""
    return (
        r.claim,
        r.function,
        r.a,
        r.b,
        -1.0 if r.lam is None else r.lam,
        -1.0 if r.q is None else r.q,
    )


def reference_summary(records, claims) -> dict:
    """The summary of a campaign's sorted ``records``; ``claims`` are its
    resolved claims, in config order."""

    def entry(claim):
        return {
            "provenance": claim.provenance,
            "records": 0,
            "by_status": dict.fromkeys(STATUSES, 0),
            "min_margin": None,
        }

    by_status = dict.fromkeys(STATUSES, 0)
    per_claim = {c.id: entry(c) for c in claims}
    for r in records:
        by_status[r.status] += 1
        e = per_claim[r.claim]
        e["records"] += 1
        e["by_status"][r.status] += 1
        if r.margin is not None:
            if e["min_margin"] is None or r.margin < e["min_margin"]:
                e["min_margin"] = r.margin
    violated = sorted({r.claim for r in records if r.status == "violated"})
    prov = {cid: per_claim[cid]["provenance"] for cid in violated}
    return {
        "total": len(records),
        "by_status": by_status,
        "claims": per_claim,
        "violated_stated_only": [c for c in violated if prov[c] == STATED_ONLY],
        "violated_proof_backed": [c for c in violated if prov[c] == PROOF_BACKED],
    }


def reference_search(claim_id, search, registry=None):
    """The counterexample search over single records: (record, trials)."""
    claim = get_claim(claim_id)
    fns = resolve_functions(search.functions, registry)
    if not fns:
        return None, 0
    rng = random.Random(search.seed)
    trials = search.trials
    lo, hi = search.interval_range
    ref = Reference(search)

    def attempt(fn, a, b, lam, q):
        r = ref.record(claim, fn, Interval(a, b), lam, q)
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
        return hit, t
    return None, trials
