"""Block evaluation over cached panel statistics gives, record for record,
what evaluating each record on its own gives (tests/harness_reference.py)."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hhbounds import harness
from hhbounds.bounds import DerivativeEnvelope
from hhbounds.corpus import (
    Interval,
    TestFunction,
    check_p_convex,
    corpus_standard,
    function_ids,
    _monomial,
    get_function,
)
from hhbounds.harness import (
    CampaignConfig,
    claim_ids,
    find_counterexample,
    get_claim,
    run_campaign,
)
from hhbounds.oracle import EvaluationError, OracleError, to_mpf
from hhbounds.records import classify

from harness_reference import Reference, reference_records, reference_search


def test_all_claims_all_functions_match_reference():
    cfg = CampaignConfig(claims=("all",), functions=("all",), trials=3, seed=17)
    records = run_campaign(cfg).records
    assert list(records) == reference_records(cfg)
    # the campaign reaches every path the reference has
    assert {r.status for r in records} == {
        "holds", "equality", "violated", "hypothesis_failed"
    }
    assert any(r.exact for r in records) and not all(r.exact for r in records)


GRID_LAMBDAS = st.sampled_from([0.0, 0.05, 0.25, 1 / 3, 0.5, 0.65, 0.95, 1.0])
GRID_QS = st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 10.0])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    lams=st.lists(
        st.one_of(GRID_LAMBDAS, st.floats(0, 1)), min_size=1, max_size=4, unique=True
    ),
    qs=st.lists(st.one_of(GRID_QS, st.floats(1, 12)), min_size=1, max_size=3, unique=True),
    fns=st.lists(st.sampled_from(function_ids()), min_size=1, max_size=3, unique=True),
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(0, 2),
)
def test_drawn_configs_match_reference(lams, qs, fns, seed, trials):
    cfg = CampaignConfig(
        claims=("all",),
        functions=tuple(fns),
        trials=trials,
        seed=seed,
        lambda_grid=tuple(lams),
        q_grid=tuple(qs),
    )
    assert list(run_campaign(cfg).records) == reference_records(cfg)


# (interval_range, min_width) of a search: (0, 1) puts bump inside its
# domain, and (-3, 3) draws intervals outside the domain of the monomials.
SEARCH_RANGES = (((0.1, 10.0), 0.05), ((0.0, 1.0), 0.01), ((-3.0, 3.0), 0.05))


@pytest.mark.parametrize("claim", claim_ids())
@pytest.mark.parametrize("seed", [3, 11])
def test_search_matches_reference(claim, seed):
    # every claim, so every screened hypothesis and every guard
    for interval_range, min_width in SEARCH_RANGES:
        cfg = CampaignConfig(
            functions=("all",), trials=15, seed=seed, interval_range=interval_range,
            min_width=min_width,
        )
        out = find_counterexample(claim, cfg)
        assert (out.record, out.trials) == reference_search(claim, cfg), interval_range


@pytest.mark.parametrize("claim_id", ["thm5", "thm6-derived", "cor4-relaxed"])
def test_search_checks_p_convexity_only_where_float_cell_is_not_comfortable(
    monkeypatch, claim_id
):
    # a proof-backed search with no hit: a trial whose float cell is a
    # comfortable 'holds' is settled without its sampled hypothesis, so the
    # P-convexity scan runs only for the trials whose float verdict, from
    # the reference, is not 'holds'
    cfg = CampaignConfig(functions=("all",), trials=60, seed=5)
    claim = get_claim(claim_id)
    scanned = []

    def counted(g, domain, grid):
        scanned.append((domain.lo, domain.hi))
        return check_p_convex(g, domain, grid)

    monkeypatch.setattr(harness, "check_p_convex", counted)
    out = find_counterexample(claim_id, cfg)
    assert (out.record, out.trials) == (None, 60)

    ref, rng, fns = Reference(cfg), random.Random(cfg.seed), corpus_standard()
    unsettled = []
    for _ in range(cfg.trials):  # the trials, drawn as the search draws them
        fn = rng.choice(fns)
        a = rng.uniform(0.1, 10.0 - cfg.min_width)
        domain = Interval(a, rng.uniform(a + cfg.min_width, 10.0))
        lam = rng.choice(cfg.lambda_grid) if claim.uses_lambda else claim.fixed_lambda
        q = rng.choice(cfg.q_grid) if claim.uses_q else None
        if fn.domain.contains(domain):
            pairs = ref.sides(claim, fn, domain, lam, q, "float")
            margins = [rhs - lhs for lhs, rhs in pairs]
            pair = pairs[0 if margins[0] <= margins[-1] else -1]
            if classify(*pair, cfg.tol, cfg.eq_tol)[0] != "holds":
                unsettled.append((domain.lo, domain.hi))
    assert scanned == unsettled
    assert 0 < len(unsettled) < cfg.trials


# Searches with no hit where every trial's float cell holds on f'' and
# f'''' at the endpoints (both monotone on every interval drawn), or, for a
# proposition, holds far beyond its rounding error.
SETTLED_BY_ENDPOINTS = [
    ("cor4-relaxed", ("poly3",)),
    ("cor8-derived", ("poly3", "poly4", "expx")),
    ("mid-envelope", ("expx",)),
    ("trap-envelope", ("expx", "poly4")),
    ("simpson-4th-p4", ("expx", "poly5")),
    ("prop1-derived", ("poly3", "poly4", "poly5")),
    ("prop3-derived", ("poly3", "poly5")),
]


@pytest.mark.parametrize("claim_id,functions", SETTLED_BY_ENDPOINTS)
def test_search_builds_no_envelope_or_exact_panel_where_endpoints_settle(
    monkeypatch, claim_id, functions
):
    # without the endpoint screen each trial samples the envelope of f''
    # (or builds the exact panel of x^n): 60 of them
    built = []
    envelope, panel_init = harness._envelope, harness._Panel.__init__

    def counted_envelope(fn, domain):
        built.append("envelope")
        return envelope(fn, domain)

    def counted_init(self, ctx, fn, domain, kind):
        built.append(kind)
        panel_init(self, ctx, fn, domain, kind)

    monkeypatch.setattr(harness, "_envelope", counted_envelope)
    monkeypatch.setattr(harness._Panel, "__init__", counted_init)
    out = find_counterexample(claim_id, CampaignConfig(functions=functions, trials=60, seed=5))
    assert (out.record, out.trials) == (None, 60)
    assert built.count("float") == 60
    assert built.count("envelope") == built.count("exact") == 0


# The interval ranges of the screen's soundness check: (-50, -0.5) lies
# outside the monomials' and the bump's domains.
SOUNDNESS_RANGES = SEARCH_RANGES + (((-50.0, -0.5), 0.05),)


@pytest.mark.parametrize("claim", claim_ids())
def test_screen_changes_no_search_outcome(monkeypatch, claim):
    configs = [
        CampaignConfig(
            functions=("all",), trials=25, seed=seed, interval_range=interval_range,
            min_width=min_width,
        )
        for seed in range(10)
        for interval_range, min_width in SOUNDNESS_RANGES
    ]
    screened = [find_counterexample(claim, cfg) for cfg in configs]
    monkeypatch.setattr(harness, "_screen", lambda *args: False)
    assert [find_counterexample(claim, cfg) for cfg in configs] == screened


@settings(max_examples=80, deadline=None, derandomize=True)
@given(fid=st.sampled_from(function_ids()), u=st.floats(0, 1), v=st.floats(0, 1))
def test_endpoint_envelope_lies_inside_the_sampled_one(fid, u, v):
    fn = get_function(fid)
    lo, width = fn.domain.lo, fn.domain.width
    a, b = lo + min(u, v) * width, lo + max(u, v) * width
    assume(a < b)
    ends = harness._endpoint_envelope(fn, Interval(a, b))
    env = harness._envelope(fn, Interval(a, b))
    assert ends.sup_abs_d2 <= env.sup_abs_d2
    if ends.lower_d2 is not None:
        assert env.lower_d2 <= ends.lower_d2 <= ends.upper_d2 <= env.upper_d2
    assert (ends.sup_abs_d4 is None) == (env.sup_abs_d4 is None)
    assert ends.sup_abs_d4 is None or ends.sup_abs_d4 <= env.sup_abs_d4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([3, 4, 5, 9, 15]),
    prop=st.sampled_from([f"prop{i}-{v}" for i in (1, 2, 3) for v in ("stated", "derived")]),
    q=st.sampled_from([1.0, 1.5, 2.0, 4.0, 10.0, 37.0]),
    log_a=st.floats(-300, 0.5),
    log_w=st.floats(-12, 1),
)
# the power sum's rounded exponent errs by 0.93 of the bound without its
# |ln M| term here, where M^1.5 is near the least normal float
@example(n=9, prop="prop2-derived", q=1.5, log_a=-30.6, log_w=1.0)
def test_rounding_bound_covers_the_float_margin_error(n, prop, q, log_a, log_w):
    # the exact margin of x^n at 60 digits, against the float one; the
    # bound includes the error of the power sum's rounded exponent 1/q,
    # which grows with |ln max|f''||
    fn, claim = _monomial(n), get_claim(prop)
    a = 10.0**log_a
    b = min(a + a * 10.0**log_w, 10.0)
    assume(a < b)
    ctx = harness._Context(CampaignConfig())
    p = ctx.panel(fn, Interval(a, b), "float")
    try:
        ((_, _, rhs, margin),) = harness._lambda_row(
            claim, p, claim.fixed_lambda, (q,), 1e-9, 1e-12
        )
    except OverflowError:
        return
    bound = harness._rounding_bound(fn, p, q, rhs)
    with mpmath.workdps(60):
        exact = ctx.panel(fn, Interval(a, b), "exact")
        rule = harness._LAMBDA_RULE[prop]
        (exact_rhs,) = exact.theorem6_row(rule, (q,), claim.variant)
        if type(exact_rhs) is Fraction:  # q = 1
            exact_rhs = to_mpf(exact_rhs)
        error = abs(to_mpf(margin) - (exact_rhs - to_mpf(exact.lhs(rule))))
    # an underflow errs absolutely, by far less than tol
    assert error <= bound + 2.0**-1000


def _elementwise_envelope(d2v, d4v) -> str:
    """The repr of the sampled envelope as each sample's finiteness, sup
    |.|, min and max give it, or 'OracleError'."""
    if not np.all(np.isfinite(d2v)):
        return "OracleError"
    sup_d4 = None
    if d4v is not None:
        if not np.all(np.isfinite(d4v)):
            return "OracleError"
        sup_d4 = float(np.max(np.abs(d4v)))
    return repr(DerivativeEnvelope(
        float(np.max(np.abs(d2v))), float(np.min(d2v)), float(np.max(d2v)), sup_d4
    ))


SAMPLES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats()),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d2=SAMPLES, d4=st.one_of(st.none(), SAMPLES))
def test_envelope_matches_the_elementwise_formula(d2, d4):
    # one min and one max per derivative give what the per-sample formula
    # gives, NaN, +-inf and -0.0 included
    d2v = np.resize(np.array(d2, dtype=float), 257)
    d4v = None if d4 is None else np.resize(np.array(d4, dtype=float), 257)
    fn = TestFunction(
        id="samples", f=lambda x: x, d1=lambda x: 1.0 + 0.0 * x,
        d2=lambda x: d2v.copy(), d4=None if d4v is None else (lambda x: d4v.copy()),
        domain=Interval(0.0, 1.0),
    )
    try:
        got = repr(harness._envelope(fn, Interval(0.0, 1.0)))
    except OracleError:
        got = "OracleError"
    assert got == _elementwise_envelope(d2v, d4v)


def test_scaled_monomial_is_not_a_proposition_case():
    # the propositions are stated for f = x^n; 3x^3 is evaluated by the
    # other claims but fails the propositions' hypothesis
    poly3 = {f.id: f for f in corpus_standard()}["poly3"]
    scaled = TestFunction(
        id="3x3",
        f=lambda x: 3 * x**3,
        d1=lambda x: 9 * x**2,
        d2=lambda x: 18 * x,
        domain=Interval(0.0, 10.0),
        d4=lambda x: 0.0 * x,
        poly_coeffs=(Fraction(0), Fraction(0), Fraction(0), Fraction(3)),
    )
    cfg = CampaignConfig(claims=("prop1-stated", "cor1-stated"), functions=("3x3",))
    registry = {"3x3": scaled, "poly3": poly3}
    records = run_campaign(cfg, registry).records
    assert list(records) == reference_records(cfg, registry)
    assert {r.status for r in records if r.claim == "prop1-stated"} == {
        "hypothesis_failed"
    }
    assert {r.status for r in records if r.claim == "cor1-stated"} != {
        "hypothesis_failed"
    }


def _flat_quartic() -> TestFunction:
    """f = eps (6x^2 - x^4): f'' = eps (12 - 12x^2) is concave, so on
    [-1, 1] the trapezoid gap lies nearer the top of its f''-range
    enclosure, and every margin is inside the equality band."""
    eps = Fraction(1, 10**12)
    e = float(eps)
    return TestFunction(
        id="flat4",
        f=lambda x: e * (6 * x**2 - x**4),
        d1=lambda x: e * (12 * x - 4 * x**3),
        d2=lambda x: e * (12 - 12 * x**2),
        d4=lambda x: -24 * e + 0.0 * x,
        domain=Interval(-2.0, 2.0),
        poly_coeffs=(Fraction(0), Fraction(0), 6 * eps, Fraction(0), -eps),
    )


def test_upper_half_of_an_enclosure_is_confirmed():
    registry = {"flat4": _flat_quartic()}
    cfg = CampaignConfig(
        claims=("trap-envelope", "mid-envelope", "simpson-4th-p4"),
        functions=("flat4",),
        intervals=((-1.0, 1.0), (-1.0, 0.5)),
    )
    records = run_campaign(cfg, registry).records
    assert list(records) == reference_records(cfg, registry)
    assert all(r.exact for r in records)


def test_non_polynomials_on_unit_subintervals_match_reference():
    # the refined-average confirmation and the non-P-convex bump
    cfg = CampaignConfig(
        claims=("all",), functions=("expx", "bump"), trials=12, seed=4242,
        interval_range=(0.0, 1.0),
    )
    assert list(run_campaign(cfg).records) == reference_records(cfg)


def test_every_claim_is_covered():
    cfg = CampaignConfig(claims=("all",), functions=("poly3",))
    assert {r.claim for r in run_campaign(cfg).records} == set(claim_ids())


def test_bump_block_where_only_some_q_are_p_convex():
    # on [0.49, 0.51] |f''|^q of the bump is a P-function for q <= 2 and
    # not for q = 4 or 10, so each lam row has met and unmet cells
    cfg = CampaignConfig(
        claims=("thm6-stated", "thm6-derived", "cor1-stated", "cor4-derived", "thm5"),
        functions=("bump",),
        intervals=((0.49, 0.51),),
        lambda_grid=(0.5, 0.0, 1.0),
        q_grid=(10.0, 1.0, 2.0, 4.0),
    )
    records = run_campaign(cfg).records
    assert list(records) == reference_records(cfg)
    thm6 = [r for r in records if r.claim == "thm6-stated"]
    assert {r.q for r in thm6 if r.status == "hypothesis_failed"} == {4.0, 10.0}
    assert {r.status for r in thm6 if r.q in (1.0, 2.0)} == {"violated"}


def _d2_raising(scalars_only: bool) -> TestFunction:
    """f = x^2 with an f'' that raises: at every point, or only when called
    at one point, so that the sampled P-check passes and the endpoint data
    of the lambda-family bounds fail."""

    def d2(x):
        if not scalars_only or np.ndim(x) == 0:
            raise EvaluationError("d2 is undefined here")
        return 2.0 + 0.0 * x

    return TestFunction(
        id="d2raise", f=lambda x: x * x, d1=lambda x: 2.0 * x, d2=d2,
        domain=Interval(0.0, 10.0), exact_integral=lambda a, b: (b**3 - a**3) / 3,
    )


@pytest.mark.parametrize("scalars_only", [False, True])
def test_raising_second_derivative_makes_every_record_undefined(scalars_only):
    registry = {"d2raise": _d2_raising(scalars_only)}
    cfg = CampaignConfig(
        claims=("thm5", "thm6-stated", "thm6-derived", "cor2-stated", "cor3-derived"),
        functions=("d2raise",),
        intervals=((1.0, 2.0), (0.5, 3.0)),
        lambda_grid=(0.0, 0.5),
        q_grid=(1.0, 2.0),
    )
    records = run_campaign(cfg, registry).records
    assert list(records) == reference_records(cfg, registry)
    assert len(records) == 2 * (2 + 2 * 4 + 2 * 2)
    assert {r.status for r in records} == {"undefined"}


@pytest.mark.parametrize(
    "claims,q_grid,statuses",
    [
        # q = 1: every bound is a Fraction, so the confirmation is rational
        (("thm6-stated", "thm6-derived", "cor1-stated", "cor8-stated", "prop2-stated"),
         (1.0,), {"holds", "equality"}),
        # stated constants with irrational roots: the halved 50-digit factor
        (("thm6-stated", "cor1-stated", "cor2-stated", "cor3-stated", "cor5-stated",
          "prop1-stated", "prop3-stated"), (1.5, 3.0), {"holds", "violated"}),
    ],
)
def test_confirmations_match_reference(claims, q_grid, statuses):
    cfg = CampaignConfig(
        claims=claims, functions=("poly2", "poly3", "poly4", "poly5"),
        trials=3, seed=29, lambda_grid=(0.0, 0.35, 0.5, 1.0), q_grid=q_grid,
    )
    records = run_campaign(cfg).records
    assert list(records) == reference_records(cfg)
    confirmed = [r for r in records if r.exact]
    assert {r.q for r in confirmed} == set(q_grid)
    assert {r.status for r in confirmed} >= statuses


def test_fixed_lambda_claims_on_unsorted_subgrids():
    cfg = CampaignConfig(
        claims=tuple(f"cor{n}-{v}" for n in (1, 2, 3, 4, 5, 8) for v in ("stated", "derived"))
        + ("cor4-relaxed", "prop1-derived", "prop3-stated"),
        functions=("poly5", "expx", "poly3"),
        trials=2, seed=8,
        lambda_grid=(0.7, 0.1, 0.4),
        q_grid=(4.0, 1.0, 2.5, 1.5),
    )
    assert list(run_campaign(cfg).records) == reference_records(cfg)
