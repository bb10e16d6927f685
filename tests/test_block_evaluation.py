"""Block evaluation over cached panel statistics gives, record for record,
what evaluating each record on its own gives (tests/harness_reference.py)."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hhbounds import bounds, harness
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
from hhbounds.oracle import EvaluationError, OracleError, _poly_terms, to_mpf
from hhbounds.records import EQ_TOL, TOL, classify

from harness_reference import Reference, reference_records, reference_search
from poly_functions import QUARTIC, SHIFTED_QUINTIC, array_shifted, at_contract_edge


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
    # a proof-backed search with no hit, on functions that are not
    # polynomials (so the screen's polynomial rule never applies): a trial
    # whose float cell is a comfortable 'holds' is settled without its
    # sampled hypothesis, so the P-convexity scan runs only for the trials
    # whose float verdict, from the reference, is not 'holds'; a uniform-M
    # cell is screened on f'' at a and b, not on the sampled envelope
    cfg = CampaignConfig(
        functions=("expx", "bump"), trials=60, seed=5, interval_range=(0.0, 1.0)
    )
    claim = get_claim(claim_id)
    built = _counted_builds(monkeypatch)
    out = find_counterexample(claim_id, cfg)
    assert (out.record, out.trials) == (None, 60)

    ref, rng = Reference(), random.Random(cfg.seed)
    if claim.family == "corm":
        ref.envelope = harness._endpoint_envelope
    fns = [get_function(fid) for fid in cfg.functions]
    unsettled = []
    for _ in range(cfg.trials):  # the trials, drawn as the search draws them
        fn = rng.choice(fns)
        a = rng.uniform(0.0, 1.0 - cfg.min_width)
        domain = Interval(a, rng.uniform(a + cfg.min_width, 1.0))
        lam = rng.choice(cfg.lambda_grid) if claim.uses_lambda else claim.fixed_lambda
        q = rng.choice(cfg.q_grid) if claim.uses_q else None
        if fn.domain.contains(domain):
            pairs = ref.sides(claim, fn, domain, lam, q, "float")
            margins = [rhs - lhs for lhs, rhs in pairs]
            pair = pairs[0 if margins[0] <= margins[-1] else -1]
            if classify(*pair, TOL, EQ_TOL)[0] != "holds":
                unsettled.append((domain.lo, domain.hi))
    assert [b[1:] for b in built if b[0] == "pcheck"] == unsettled
    assert 0 < len(unsettled) < cfg.trials


def _counted_builds(monkeypatch) -> list:
    """The list that the builds of panels (by kind), sampled envelopes and
    P-checks are appended to from here on, with their interval."""
    built = []
    envelope, panel_init = harness._envelope, harness._Panel.__init__

    def counted_envelope(fn, domain):
        built.append(("envelope", domain.lo, domain.hi))
        return envelope(fn, domain)

    def counted_init(self, ctx, fn, domain, kind):
        built.append((kind, domain.lo, domain.hi))
        panel_init(self, ctx, fn, domain, kind)

    def counted_pcheck(g, domain):
        built.append(("pcheck", domain.lo, domain.hi))
        return check_p_convex(g, domain)

    monkeypatch.setattr(harness, "_envelope", counted_envelope)
    monkeypatch.setattr(harness._Panel, "__init__", counted_init)
    monkeypatch.setattr(harness, "check_p_convex", counted_pcheck)
    return built


# Searches with no hit where every trial's float cell holds on f'' and
# f'''' at the endpoints (both monotone on every interval drawn), or, for a
# proposition, holds far beyond the error bound of its float margin.  Each
# enveloped family has a function that is not a polynomial.
SETTLED_BY_ENDPOINTS = [
    ("cor4-relaxed", ("poly3", "expx")),
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
    # (or builds the exact panel of x^n): 60 of them.  A polynomial's trial
    # of an enveloped claim is settled by the endpoint screen alone here.
    if get_claim(claim_id).family in harness._ENVELOPED:
        monkeypatch.setattr(harness, "_margin_error", lambda *args: math.inf)
    built = _counted_builds(monkeypatch)
    out = find_counterexample(claim_id, CampaignConfig(functions=functions, trials=60, seed=5))
    built = [b[0] for b in built]
    assert (out.record, out.trials) == (None, 60)
    assert built.count("float") == 60
    assert built.count("envelope") == built.count("exact") == 0


@pytest.mark.parametrize(
    "claim_id", ["thm6-derived", "cor4-relaxed", "mid-envelope", "hh", "simpson-4th-p4"]
)
def test_search_on_constant_second_derivative_builds_nothing_sampled_or_exact(
    monkeypatch, claim_id
):
    # f'' is constant on const1 and poly2, so these bounds hold with
    # equality on many trials (and simpson-4th-p4 on all); a polynomial's
    # float margin that cannot become a confirmed violation settles its trial
    built = _counted_builds(monkeypatch)
    cfg = CampaignConfig(functions=("const1", "poly2"), trials=60, seed=5)
    out = find_counterexample(claim_id, cfg)
    assert (out.record, out.trials) == (None, 60)
    kinds = [b[0] for b in built]
    assert kinds.count("float") == 60
    assert kinds.count("exact") == kinds.count("envelope") == kinds.count("pcheck") == 0
    # with an infinite error bound the rule settles none of them, and the
    # trials that end in equality build their exact panels again
    monkeypatch.setattr(harness, "_margin_error", lambda *args: math.inf)
    built.clear()
    assert find_counterexample(claim_id, cfg) == out
    assert "exact" in [b[0] for b in built]


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


# The corpus and two polynomials whose coefficients cancel, each also with
# an f'' and f'''' that an array evaluation puts 4 ulps nearer 0, and the
# polynomials at the edge of the rounding TestFunction's contract allows.
ENVELOPE_FUNCTIONS = {
    f.id: f
    for g in (*map(get_function, function_ids()), QUARTIC, SHIFTED_QUINTIC)
    for f in (g, array_shifted(g), *([at_contract_edge(g)] if g.poly_coeffs else []))
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fid=st.sampled_from(sorted(ENVELOPE_FUNCTIONS)), u=st.floats(0, 1), v=st.floats(0, 1))
# |f''| and |f''''| of the expanded quintic lie below their slack near 3
@example(fid="quintic3", u=0.65 - 1e-8, v=0.65 + 1e-8)
def test_endpoint_envelope_lies_inside_the_sampled_one(fid, u, v):
    # each field on its own side of the sampled one, the sups at least 0;
    # the endpoint f'' range may be inverted (lower > upper), as where f''
    # is constant
    fn = ENVELOPE_FUNCTIONS[fid]
    lo, width = fn.domain.lo, fn.domain.width
    a, b = lo + min(u, v) * width, lo + max(u, v) * width
    assume(a < b)
    ends = harness._endpoint_envelope(fn, Interval(a, b))
    env = harness._envelope(fn, Interval(a, b))
    assert 0 <= ends.sup_abs_d2 <= env.sup_abs_d2
    assert env.lower_d2 <= ends.lower_d2 and ends.upper_d2 <= env.upper_d2
    assert (ends.sup_abs_d4 is None) == (env.sup_abs_d4 is None)
    assert ends.sup_abs_d4 is None or 0 <= ends.sup_abs_d4 <= env.sup_abs_d4


# x^2 ... x^15, const1 and two polynomials whose coefficients cancel, each
# also at the edge of the rounding TestFunction's contract allows.
HORNER_FUNCTIONS = [
    h
    for g in (*map(_monomial, range(2, 16)), get_function("const1"), QUARTIC, SHIFTED_QUINTIC)
    for h in (g, at_contract_edge(g))
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fn=st.sampled_from(HORNER_FUNCTIONS),
    order=st.sampled_from([0, 2, 4]),
    x=st.just(0.0) | st.tuples(st.floats(1e-300, 1e3), st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0]
    ),
)
def test_horner_table_gives_the_fraction_sum_bit_for_bit(fn, order, x):
    # the bound as it reads in Fraction arithmetic, each |c_k| k!/(k - order)!
    # a Fraction multiplied by a float
    terms = [
        (k, abs(c) * math.perm(k, order)) for k, c in _poly_terms(fn.poly_coeffs) if k >= order
    ]
    expected = len(fn.poly_coeffs) * 2.0**-52 * sum(c * abs(x) ** (k - order) for k, c in terms)
    bound = harness._horner_bound(fn, x, order)
    assert type(bound) is type(expected) is float
    assert bound.hex() == expected.hex()


# The polynomials of the error bound's property test: monomials, const1, two
# whose coefficients cancel, and three at the edge of the rounding that
# TestFunction's contract allows.
BOUND_FUNCTIONS = {
    f.id: f
    for f in (
        *map(_monomial, range(2, 16)), get_function("const1"), QUARTIC, SHIFTED_QUINTIC,
        *map(at_contract_edge, (get_function("poly2"), QUARTIC, SHIFTED_QUINTIC)),
    )
}


def _cell_pairs(claim, p, lam, q, env):
    """The (lhs, rhs) pairs of a search trial's cell on panel ``p``, in the
    panel's number type, as the screen's float cell classifies them."""
    pairs = lambda lhs, rhss, *args: [(lhs, rhs) for rhs in rhss]  # noqa: E731
    with mock.patch.object(harness, "classify_row", pairs):
        return harness._row(claim)(claim, p, lam, (q,), env)


def _mp(x):
    """``x`` at the working precision: an exact root of :mod:`bounds`
    correctly rounded, a rational the nearest mpf."""
    return mpmath.mpf(x) if isinstance(x, (mpmath.mpf, bounds._Root)) else to_mpf(x)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    fid=st.sampled_from(sorted(BOUND_FUNCTIONS)),
    cid=st.sampled_from(claim_ids()),
    q=st.sampled_from([1.0, 1.5, 2.0, 4.0, 10.0, 37.0]),
    lam=st.sampled_from(harness.DEFAULT_LAMBDA_GRID),
    a=st.one_of(st.floats(-300, 1).map(lambda e: 10.0**e), st.floats(0, 10)),
    log_w=st.floats(-12, 1),
    relative=st.booleans(),
)
# M^1.5 = 2.6e-308 lies next to the least normal float: the power sum's
# rounded exponent 1/q puts the rhs off by 119 ulps, 0.83 of E without its
# |ln M| and (b - a)^2 terms
@example(fid="poly9", cid="prop2-derived", q=1.5, lam=0.0, a=10.0**-30.6, log_w=1.0, relative=True)
# f'' and f'''' of the expanded (x - 3)^5 cancel to nearly 0 near x = 3
@example(fid="quintic3", cid="thm6-derived", q=1.0, lam=0.5, a=2.999, log_w=-3.0, relative=True)
@example(fid="quintic3", cid="simpson-4th-p4", q=1.0, lam=0.5, a=2.9, log_w=-1.4, relative=True)
@example(fid="quartic", cid="cor1-stated", q=1.0, lam=0.5, a=0.25, log_w=0.3, relative=True)
def test_rounding_bound_covers_the_float_margin_error(fid, cid, q, lam, a, log_w, relative):
    # every half of the float cell the screen reads (on the endpoint
    # envelope for the enveloped families), against the same cell on the
    # exact panel at 60 digits, with the endpoint envelope's values taken
    # as they are: the margins differ by no more than the screen's bound E.
    # No example here needs E's (b - a)^2 (h''(a) + h''(b)) term, for f''
    # at a and b: it moves the rhs by (b - a)^2 h''/12 at most, and where
    # f'' cancels, as near x = 3 on the expanded quintic, the f-sample
    # terms 16 h(.) are larger: there, wide intervals with an end at 3
    # included, the error stays below 0.1 of E without the term.  It stays
    # because the proof bounds each source of error on its own.
    fn, claim = BOUND_FUNCTIONS[fid], get_claim(cid)
    # a width relative to a keeps tiny intervals near 0; an absolute one
    # reaches from near 0 to far from it
    b = min(a + (a if relative else 1.0) * 10.0**log_w, 10.0)
    assume(0 < a < b)
    lam = lam if claim.uses_lambda else claim.fixed_lambda
    q = q if claim.uses_q else None
    domain, ctx = Interval(a, b), harness._Context()
    p = ctx.panel(fn, domain, "float")
    env = None
    if claim.family in harness._ENVELOPED:
        env = harness._endpoint_envelope(fn, domain)
    try:
        pairs = _cell_pairs(claim, p, lam, q, env)
        bound = harness._margin_error(fn, p, q, sum(abs(lhs) + abs(rhs) for lhs, rhs in pairs))
    except OverflowError:
        return
    exact_env = env and SimpleNamespace(
        **{k: v if v is None else Fraction(v) for k, v in vars(env).items()}
    )
    with mpmath.workdps(60):
        exact = ctx.panel(fn, domain, "exact")
        exact_pairs = _cell_pairs(claim, exact, lam, q, exact_env)
        for (lhs, rhs), (lhs_x, rhs_x) in zip(pairs, exact_pairs):
            error = abs(to_mpf(rhs - lhs) - (_mp(rhs_x) - _mp(lhs_x)))
            # an underflow errs absolutely, by far less than tol
            assert error <= bound + 2.0**-1000, (lhs, rhs, float(error), bound)


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


def test_kept_half_is_chosen_on_the_float_margin():
    # the upper half has the smaller float margin and is confirmed; on the
    # exact panel the lower half's margin is the smaller one
    cfg = CampaignConfig(
        claims=("mid-envelope",), functions=("poly3",),
        intervals=((0.7603466085822973, 0.7604529674759943),),
    )
    (record,) = run_campaign(cfg).records
    assert (record.lhs, record.rhs, record.margin, record.status, record.exact) == (
        2.150451332968737e-09, 2.1506017272930937e-09, 1.503943243571104e-13, "holds", True
    )


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
