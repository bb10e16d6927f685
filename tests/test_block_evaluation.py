"""Block evaluation over cached panel statistics gives, record for record,
what evaluating each record on its own gives (tests/harness_reference.py)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.corpus import Interval, TestFunction, corpus_standard, function_ids
from hhbounds.harness import CampaignConfig, claim_ids, find_counterexample, run_campaign
from hhbounds.oracle import EvaluationError

from harness_reference import reference_records, reference_search


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


@pytest.mark.parametrize(
    "claim", ["thm6-stated", "cor1-stated", "cor5-stated", "prop2-stated", "hh", "thm5"]
)
@pytest.mark.parametrize("seed", [3, 11])
def test_search_matches_reference(claim, seed):
    cfg = CampaignConfig(functions=("all",), trials=15, seed=seed)
    out = find_counterexample(claim, cfg)
    assert (out.record, out.trials) == reference_search(claim, cfg)


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
