"""Harness tests: ledger contents, campaign semantics, search, determinism."""

import dataclasses
import gc
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hhbounds import bounds, corpus, functionals, harness, oracle
from hhbounds.corpus import GridSpec, Interval, TestFunction, corpus_standard
from hhbounds.harness import (
    PROOF_BACKED,
    STATED_ONLY,
    CampaignConfig,
    claim_ids,
    find_counterexample,
    get_claim,
    ledger_standard,
    run_campaign,
    sample_intervals,
)
from hhbounds.oracle import to_mpf
from hhbounds.records import TOL

from harness_reference import ENVELOPED, LEDGER_PIN, SPECS, reference_search, sort_key
from poly_functions import QUARTIC, SHIFTED_QUINTIC, array_shifted

LEDGER = ledger_standard()

THIRD = 1 / 3
# The whole ledger, claim by claim: (its row function's name and the
# constants the claim binds to it, the rule whose lam it fixes,
# uses_lambda, uses_q, exact, fixed_lambda).  Ids and provenances are
# pinned by the reference's own table, LEDGER_PIN; provenances never
# change, and every rule lambda comes from one table.
ROW_PIN = {
    "thm5": (("_moment_row", "derived"), None, True, False, False, None),
    "thm6-stated": (("_moment_row", "stated"), None, True, True, False, None),
    "thm6-derived": (("_moment_row", "derived"), None, True, True, False, None),
    "cor1-stated": (("_moment_row", "stated"), "midpoint", False, True, False, 0.0),
    "cor1-derived": (("_moment_row", "derived"), "midpoint", False, True, False, 0.0),
    "cor2-stated": (("_moment_row", "stated"), "trapezoid", False, True, False, 1.0),
    "cor2-derived": (("_moment_row", "derived"), "trapezoid", False, True, False, 1.0),
    "cor3-stated": (("_moment_row", "stated"), "simpson", False, True, False, THIRD),
    "cor3-derived": (("_moment_row", "derived"), "simpson", False, True, False, THIRD),
    "cor4-stated": (
        ("_uniform_row", "midpoint", "with_q", "stated"), "midpoint", False, True, False, 0.0
    ),
    "cor4-derived": (
        ("_uniform_row", "midpoint", "with_q", "derived"), "midpoint", False, True, False, 0.0
    ),
    "cor4-relaxed": (
        ("_uniform_row", "midpoint", "relaxed", "stated"), "midpoint", False, False, False, 0.0
    ),
    "cor5-stated": (
        ("_uniform_row", "trapezoid", "with_q", "stated"), "trapezoid", False, True, False, 1.0
    ),
    "cor5-derived": (
        ("_uniform_row", "trapezoid", "with_q", "derived"), "trapezoid", False, True, False, 1.0
    ),
    "cor5-relaxed": (
        ("_uniform_row", "trapezoid", "relaxed", "stated"), "trapezoid", False, False, False, 1.0
    ),
    "cor8-stated": (
        ("_uniform_row", "simpson", "with_q", "stated"), "simpson", False, True, False, THIRD
    ),
    "cor8-derived": (
        ("_uniform_row", "simpson", "with_q", "derived"), "simpson", False, True, False, THIRD
    ),
    "cor8-relaxed": (
        ("_uniform_row", "simpson", "relaxed", "stated"), "simpson", False, False, False, THIRD
    ),
    "hh": (("_hh_row", 1, 2), None, False, False, False, None),
    "hh-p": (("_hh_row", 2, 1), None, False, False, False, None),
    "mid-envelope": (("_classical_row", "midpoint", 4), None, False, False, False, None),
    "trap-envelope": (("_classical_row", "trapezoid", 4), None, False, False, False, None),
    "simpson-4th-p4": (("_classical_row", "simpson", 4), None, False, False, False, None),
    "simpson-4th-p2": (("_classical_row", "simpson", 2), None, False, False, False, None),
    "prop1-stated": (("_moment_row", "stated"), "midpoint", False, True, True, 0.0),
    "prop1-derived": (("_moment_row", "derived"), "midpoint", False, True, True, 0.0),
    "prop2-stated": (("_moment_row", "stated"), "trapezoid", False, True, True, 1.0),
    "prop2-derived": (("_moment_row", "derived"), "trapezoid", False, True, True, 1.0),
    "prop3-stated": (("_moment_row", "stated"), "simpson", False, True, True, THIRD),
    "prop3-derived": (("_moment_row", "derived"), "simpson", False, True, True, THIRD),
}


def _finite_only_at_samples() -> TestFunction:
    """f(x) = 2x at 1, 1.5 and 2 (the points the float sides read on
    [1, 2]), with a closed-form integral, and NaN everywhere else."""

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.isin(x, (1.0, 1.5, 2.0)), 2.0 * x, np.nan)
        return out if out.ndim else float(out)

    return TestFunction(
        id="spiky",
        f=f,
        d2=lambda x: 0.0 * x,
        domain=Interval(0.0, 10.0),
        exact_integral=lambda a, b: b * b - a * a,
    )


def _raising_from_2() -> TestFunction:
    """f(x) = x^2, which raises from x = 2 on."""

    def f_edge(x):
        if np.any(np.asarray(x) >= 2.0):
            raise ValueError("f is undefined from 2 on")
        return x * x

    return TestFunction(
        id="edge", f=f_edge,
        d2=lambda x: 2.0 + 0.0 * x, d4=lambda x: 0.0 * x,
        domain=Interval(0.0, 10.0),
    )


def _huge_flat() -> TestFunction:
    """f = 5e39 x^2: f'' is 1e40 everywhere."""
    return TestFunction(
        id="huge-flat", f=lambda x: 5e39 * x**2,
        d2=lambda x: 1e40 + 0.0 * x, d4=lambda x: 0.0 * x,
        domain=Interval(-100.0, 100.0),
    )


def _huge_wave() -> TestFunction:
    """f = 1e38 cos x: f'' = -1e38 cos x."""
    return TestFunction(
        id="huge-wave", f=lambda x: 1e38 * np.cos(x),
        d2=lambda x: -1e38 * np.cos(x), d4=lambda x: 1e38 * np.cos(x),
        domain=Interval(-100.0, 100.0),
    )


# Every record of this campaign reads the float panel of f on [1, 2], whose
# build integrates f, then raises at f(2).
EDGE_CAMPAIGN = CampaignConfig(
    claims=("thm6-stated", "thm5", "hh", "simpson-4th-p4"), functions=("edge",)
)


class TestLedger:
    def test_size_and_uniqueness(self):
        ids = [c.id for c in LEDGER]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 16

    def test_thm5_claim(self):
        c = get_claim("thm5")
        assert c.provenance == PROOF_BACKED

    def test_power_mean_family_has_both_variants(self):
        for base in ("thm6", "cor1", "cor2", "cor3", "cor4", "cor5", "cor8",
                     "prop1", "prop2", "prop3"):
            assert f"{base}-stated" in claim_ids()
            assert f"{base}-derived" in claim_ids()
            assert get_claim(f"{base}-stated").provenance == STATED_ONLY
            assert get_claim(f"{base}-derived").provenance == PROOF_BACKED

    def test_classical_claims_present(self):
        for cid in ("hh", "hh-p", "mid-envelope", "trap-envelope",
                    "simpson-4th-p4", "simpson-4th-p2"):
            assert cid in claim_ids()
        assert get_claim("simpson-4th-p2").provenance == STATED_ONLY
        assert get_claim("simpson-4th-p4").provenance == PROOF_BACKED

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            get_claim("thm99")

    def test_ledger_pinned(self):
        assert [(c.id, c.provenance) for c in LEDGER] == [row[:2] for row in LEDGER_PIN]
        rows = {
            c.id: ((c.row.func.__name__, *c.row.args), c.rule, c.uses_lambda, c.uses_q,
                   c.exact, c.fixed_lambda)
            for c in LEDGER
        }
        assert rows == ROW_PIN
        for c in LEDGER:
            assert not c.row.keywords
            if c.fixed_lambda is not None:
                assert type(c.fixed_lambda) is float
        # the reference's table fixes the same lam and flags
        for c in LEDGER:
            spec = SPECS[c.id]
            assert (c.uses_lambda, c.uses_q, c.fixed_lambda) == (
                spec.uses_lambda, spec.uses_q, spec.fixed_lambda
            )
            assert c.exact == (spec.family == "prop")

    def test_a_claim_is_its_row(self):
        # no family name, variant, form or power: the row binds them
        assert [f.name for f in dataclasses.fields(harness.BoundClaim)] == [
            "id", "provenance", "hypothesis", "row", "rule", "uses_lambda", "uses_q", "exact",
        ]

    def test_enveloped_is_exactly_the_rows_that_read_an_envelope(self):
        # the float row of every claim on poly3 at [1, 2] without an
        # envelope raises where the claim is enveloped, and only there
        ctx = harness._Context()
        p = ctx.panel(corpus.get_function("poly3"), Interval(1.0, 2.0), "float")
        for c in LEDGER:
            lam = 0.5 if c.uses_lambda else c.fixed_lambda
            qs = (1.0, 2.0) if c.uses_q else (None,)
            assert c.enveloped == (SPECS[c.id].family in ENVELOPED), c.id
            if c.enveloped:
                with pytest.raises(AttributeError):
                    c.row(p, lam, qs, None)
            else:
                assert all(v[0] in ("holds", "equality", "violated") for v in c.row(p, lam, qs, None))


class TestSharedInstances:
    """Every run in a process reads the standard registry's functions and
    the ledger's claims, so what a function caches is built once."""

    def test_all_functions_are_the_registry_instances(self):
        fns = harness.resolve_functions(("all",), None)
        assert [f.id for f in fns] == list(corpus.function_ids())
        assert all(f is corpus.get_function(f.id) for f in fns)

    def test_all_claims_are_the_ledger_instances(self):
        claims = harness.resolve_claims(("all",))
        assert [c.id for c in claims] == list(claim_ids())
        assert all(c is get_claim(c.id) for c in claims)

    def test_second_search_builds_no_polynomial_terms(self, monkeypatch):
        cfg = CampaignConfig(functions=("all",), trials=40, seed=3)
        first = find_counterexample("thm6-derived", cfg)
        calls = []
        terms = corpus._poly_terms

        def counted(coeffs):
            calls.append(coeffs)
            return terms(coeffs)

        monkeypatch.setattr(corpus, "_poly_terms", counted)
        assert find_counterexample("thm6-derived", cfg) == first
        assert calls == []


class TestSampler:
    def test_bounds_and_width(self):
        cfg = CampaignConfig(trials=200, seed=9)
        for a, b in sample_intervals(cfg):
            assert 0.1 <= a < b <= 10.0
            assert b - a >= 0.05

    @pytest.mark.parametrize(
        "interval_range, min_width",
        [
            ((5.0, 1.0), 0.05),  # reversed: the draws had b < a
            ((1.0, 1.0), 0.05),
            ((0.1, 10.0), -1.0),  # b < a again
            ((0.1, 10.0), 0.0),
            ((0.0, 0.01), 0.05),  # a was drawn below the range
            ((0.0, math.inf), 0.05),  # drew (inf, nan)
            ((-math.inf, 0.0), 0.05),
            ((-1e308, 1e308), 0.05),  # hi - lo overflows
            ((0.0, math.nan), 0.05),
            ((0.0, 1.0), math.nan),
        ],
    )
    def test_invalid_interval_range_rejected(self, interval_range, min_width):
        with pytest.raises(ValueError, match="interval_range must be finite"):
            CampaignConfig(interval_range=interval_range, min_width=min_width)

    @pytest.mark.parametrize(
        "q_grid", [(math.inf,), (1.0, math.inf), (math.nan,), (0.5,), (1.0, -math.inf)]
    )
    def test_q_grid_must_be_finite_and_at_least_one(self, q_grid):
        # an infinite q once passed, and the campaign then raised
        # OverflowError in a power sum instead of recording a status
        with pytest.raises(ValueError, match="q grid values must be finite and >= 1"):
            CampaignConfig(q_grid=q_grid)

    @pytest.mark.parametrize(
        "interval",
        [
            (3.0, 2.5),  # reversed
            (2.0, 2.0),
            (-0.0, 0.0),
            (1.0, math.nan),
            (math.nan, 1.0),
            (1.0, math.inf),
            (-math.inf, 1.0),
            (1.0,),
            (1.0, 2.0, 3.0),
        ],
    )
    def test_invalid_interval_rejected(self, interval):
        # rejected with the config, before a stream yields any record
        with pytest.raises(ValueError, match="each interval must be a finite pair a < b"):
            CampaignConfig(intervals=((1.0, 2.0), interval))

    @pytest.mark.parametrize("interval_range", [(0.0, 0.05), (-1.0, -0.95), (2, 3)])
    def test_narrowest_interval_range_draws_inside_it(self, interval_range):
        # min_width = hi - lo is allowed: every draw is the whole range,
        # up to a rounding of b
        lo, hi = interval_range
        cfg = CampaignConfig(trials=20, seed=4, interval_range=interval_range, min_width=hi - lo)
        for a, b in sample_intervals(cfg):
            assert a == lo and math.isclose(b, hi, rel_tol=1e-15)

    def test_oversized_pconvex_grid_rejected(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            GridSpec(1000, 1001, 1000)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("claims", ("thm5", "hh", "thm5")),
            ("functions", ("poly2", "poly2")),
            ("intervals", ((0.0, 1.0), (1.0, 2.0), (-0.0, 1.0))),
            ("intervals", ((1, 2), (1.0, 2.0))),
            ("lambda_grid", (0.0, -0.0)),
            ("lambda_grid", (0.5, 1.0, 0.5)),
            ("q_grid", (2.0, 1.0, 2.0)),
        ],
    )
    def test_repeated_input_rejected(self, field, values):
        # floats compare with ==, so 0.0 and -0.0 are one value
        with pytest.raises(ValueError, match="may be given once"):
            CampaignConfig(**{field: values})

    def test_registry_sharing_an_id_rejected(self):
        poly2 = {f.id: f for f in corpus_standard()}["poly2"]
        registry = {"poly2": poly2, "square": poly2}
        cfg = CampaignConfig(claims=("hh",), functions=("poly2", "square"))
        with pytest.raises(ValueError, match="share an id"):
            run_campaign(cfg, registry)
        with pytest.raises(ValueError, match="share an id"):
            run_campaign(CampaignConfig(claims=("hh",), functions=("all",)), registry)
        with pytest.raises(ValueError, match="share an id"):
            find_counterexample("hh", cfg, registry)

    def test_seed_determinism_and_grid_independence(self):
        base = CampaignConfig(trials=50, seed=3)
        denser = CampaignConfig(trials=50, seed=3, lambda_grid=(0.0, 0.5, 1.0))
        assert sample_intervals(base) == sample_intervals(denser)
        assert sample_intervals(base) != sample_intervals(
            CampaignConfig(trials=50, seed=4)
        )


class TestRunCampaign:
    def test_proof_backed_claims_never_violated_on_polynomials(self):
        proof_backed = tuple(c.id for c in LEDGER if c.provenance == PROOF_BACKED)
        cfg = CampaignConfig(
            claims=proof_backed,
            functions=("poly2", "poly3", "poly4", "poly5", "const1"),
            trials=6,
            seed=21,
        )
        res = run_campaign(cfg)
        assert res.summary["by_status"]["violated"] == 0
        assert res.summary["violated_proof_backed"] == []

    def test_prop1_stated_counterexample_record(self):
        cfg = CampaignConfig(
            claims=("prop1-stated",), functions=("poly3",), q_grid=(1.0, 2.0)
        )
        res = run_campaign(cfg)
        viol = [r for r in res.records if r.status == "violated"]
        assert len(viol) == 1
        r = viol[0]
        assert (r.a, r.b, r.q) == (1.0, 2.0, 2.0)
        assert r.lhs == pytest.approx(3 / 8)
        assert r.margin == pytest.approx(-0.09549150281, abs=1e-9)
        assert r.exact

    def test_empty_function_list(self):
        res = run_campaign(CampaignConfig(claims=("all",), functions=()))
        assert res.records == ()
        assert res.summary["total"] == 0
        assert all(v == 0 for v in res.summary["by_status"].values())

    def test_records_sorted_canonically(self):
        cfg = CampaignConfig(claims=("thm5", "hh"), functions=("all",), trials=3, seed=2)
        res = run_campaign(cfg)
        keys = [sort_key(r) for r in res.records]
        assert keys == sorted(keys)

    def test_status_partition(self):
        cfg = CampaignConfig(claims=("all",), functions=("all",), seed=7)
        res = run_campaign(cfg)
        assert res.summary["total"] == len(res.records)
        assert sum(res.summary["by_status"].values()) == len(res.records)
        for r in res.records:
            if r.status in ("hypothesis_failed", "undefined"):
                assert r.lhs is None and r.rhs is None and r.margin is None
            else:
                assert r.lhs is not None and r.rhs is not None
                assert r.margin == pytest.approx(r.rhs - r.lhs, abs=1e-12)

    def test_violated_polynomial_records_are_exact(self):
        cfg = CampaignConfig(claims=("all",), functions=("all",), seed=7)
        res = run_campaign(cfg)
        for r in res.records:
            if r.status == "violated" and r.function.startswith(("poly", "const")):
                assert r.exact

    def test_determinism_byte_identical(self):
        cfg = CampaignConfig(claims=("all",), functions=("all",), trials=4, seed=13)
        r1 = run_campaign(cfg)
        r2 = run_campaign(cfg)
        assert [r.as_dict() for r in r1.records] == [r.as_dict() for r in r2.records]
        assert json.dumps(r1.summary) == json.dumps(r2.summary)

    def test_monotone_grids_never_flip_status(self):
        small = CampaignConfig(
            claims=("thm6-stated", "thm6-derived"),
            functions=("poly2", "expx"),
            lambda_grid=(0.0, 0.5, 1.0),
            q_grid=(1.0, 2.0),
            trials=2,
            seed=5,
        )
        large = CampaignConfig(
            claims=("thm6-stated", "thm6-derived"),
            functions=("poly2", "expx"),
            lambda_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
            q_grid=(1.0, 1.5, 2.0, 4.0),
            trials=2,
            seed=5,
        )
        by_key_small = {
            (r.claim, r.function, r.a, r.b, r.lam, r.q): r.status
            for r in run_campaign(small).records
        }
        by_key_large = {
            (r.claim, r.function, r.a, r.b, r.lam, r.q): r.status
            for r in run_campaign(large).records
        }
        assert set(by_key_small) <= set(by_key_large)
        for key, status in by_key_small.items():
            assert by_key_large[key] == status

    def test_undefined_records_from_broken_function(self):
        bad = TestFunction(
            id="bad",
            f=lambda x: float("nan") + 0.0 * x,
            d2=lambda x: float("nan") + 0.0 * x,
            domain=Interval(0.0, 10.0),
        )
        registry = {"bad": bad}
        cfg = CampaignConfig(claims=("thm5",), functions=("bad",), lambda_grid=(0.5,))
        res = run_campaign(cfg, registry=registry)
        assert len(res.records) == 1
        assert res.records[0].status == "undefined"

    def test_confirmation_failure_is_undefined(self):
        # the hh margin on [1, 2] is 0, inside the equality band, so it is
        # confirmed by re-integrating f, which meets NaN: that failure must
        # become a record, in campaigns and in searches alike
        registry = {"spiky": _finite_only_at_samples()}
        cfg = CampaignConfig(claims=("hh",), functions=("spiky",))
        res = run_campaign(cfg, registry=registry)
        assert [r.status for r in res.records] == ["undefined"]
        assert res.records[0].lhs is None
        search = CampaignConfig(functions=("spiky",), trials=5, seed=3)
        out = find_counterexample("hh", search, registry)
        assert out.record is None and out.trials == 5

    def test_raising_function_is_undefined(self):
        # f'' raising below 1.5 reaches the sampled envelope (hh,
        # mid-envelope); f raising at 2 reaches the scalar endpoint values
        # of the float sides (thm5, mid-envelope, simpson-4th-p4)
        # f'' = 1/sqrt(x - 1.5) above 1.5, where f is finite everywhere
        def f_root(x):
            return 4.0 / 3.0 * np.maximum(x - 1.5, 0.0) ** 1.5

        registry = {
            "rootd2": TestFunction(
                id="rootd2", f=f_root,
                d2=lambda x: 1.0 / math.sqrt(x - 1.5), domain=Interval(0.0, 10.0),
            ),
            "edge": _raising_from_2(),
        }
        for fid, claims in (
            ("rootd2", ("hh", "mid-envelope")),
            ("edge", ("thm5", "mid-envelope", "simpson-4th-p4")),
        ):
            cfg = CampaignConfig(claims=claims, functions=(fid,), lambda_grid=(0.5,))
            res = run_campaign(cfg, registry=registry)
            assert [r.status for r in res.records] == ["undefined"] * len(claims)
            search = CampaignConfig(
                functions=(fid,), interval_range=(1.0, 3.0), trials=5, seed=3
            )
            for claim in claims:
                out = find_counterexample(claim, search, registry)
                assert out.record is None and out.trials == 5

    def test_failed_panel_is_built_once(self, monkeypatch):
        # the failed float panel is kept like a panel, so f is integrated
        # once for the whole run, not once per record (105 for the
        # thm6-stated block alone)
        integrate, calls = oracle.integrate, []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(oracle, "integrate", counted)
        res = run_campaign(EDGE_CAMPAIGN, registry={"edge": _raising_from_2()})
        assert len(res.records) == 105 + 21 + 1 + 1
        assert {r.status for r in res.records} == {"undefined"}
        assert len(calls) == 1

    def test_failed_envelope_is_sampled_once(self):
        # all four claims read the sampled envelope of f'' on [1, 2], where
        # f'' = 1/sqrt(x - 1.5) raises.  Sampling calls f'' on the whole
        # array, then at each of the 257 points; the failure is kept, so
        # that happens once for the run, not once per claim block
        calls = []

        def d2(x):
            calls.append(x)
            x = np.asarray(x, dtype=float)
            if np.any(x <= 1.5):
                raise ValueError("f'' is undefined up to 1.5")
            return 1.0 / np.sqrt(x - 1.5)

        registry = {
            "root": TestFunction(
                id="root", f=lambda x: x * x, d2=d2,
                d4=lambda x: 0.0 * x, domain=Interval(0.0, 10.0),
            )
        }
        cfg = CampaignConfig(
            claims=("mid-envelope", "trap-envelope", "simpson-4th-p4", "hh"),
            functions=("root",),
        )
        res = run_campaign(cfg, registry=registry)
        assert [r.status for r in res.records] == ["undefined"] * 4
        assert len(calls) == 1 + 257

    def test_interval_outside_function_domain_is_hypothesis_failed(self):
        cfg = CampaignConfig(
            claims=("hh",), functions=("bump",), intervals=((1.0, 2.0),)
        )
        res = run_campaign(cfg)
        assert [r.status for r in res.records] == ["hypothesis_failed"]

    def test_no_false_positives_at_higher_precision(self):
        # every reported violation survives standalone re-evaluation
        cfg = CampaignConfig(claims=("all",), functions=("all",), seed=7)
        res = run_campaign(cfg)
        checked = 0
        for r in res.records:
            if r.status != "violated" or checked >= 40:
                continue
            claim = SPECS[r.claim]
            fn = {f.id: f for f in corpus_standard()}[r.function]
            scale = max(1.0, abs(r.lhs), abs(r.rhs))
            if claim.family in ("thm5", "thm6", "cor") and fn.poly_coeffs is not None:
                lam = Fraction(r.lam) if claim.rule is None else bounds.RULE_LAMBDA_EXACT[claim.rule]
                lhs = abs(functionals.functional_lambda_exact(fn, Interval(r.a, r.b), lam))
                d2a = abs(fn.d2(r.a))
                d2b = abs(fn.d2(r.b))
                with mpmath.workdps(50):
                    rhs = bounds.bound_theorem6_mp(
                        Interval(r.a, r.b), lam, Fraction(r.q), d2a, d2b, claim.variant
                    )
                    margin = float(rhs - to_mpf(lhs))
                assert margin < -TOL / 10 * scale, r
                checked += 1
            elif claim.family in ("thm5", "thm6", "cor") and fn.id == "expx":
                dom = Interval(r.a, r.b)
                fa, fm, fb = (float(fn.f(x)) for x in (dom.lo, dom.midpoint, dom.hi))
                refined = functionals.average_value(fn, dom, 1e-13)
                lhs = abs((r.lam - 1) * fm - r.lam * (fa + fb) / 2 + refined)
                assert r.rhs - lhs < -TOL / 10 * scale, r
                checked += 1
        assert checked > 0


    def test_run_leaves_no_reference_cycle(self):
        # a run's panels and caches are freed when it ends, not kept in a
        # cycle until the next full collection, also where a build failed
        cfg = CampaignConfig(
            claims=("all",),
            functions=("poly3", "expx", "bump"),
            intervals=((1.0, 2.0), (0.0, 1.0)),
            lambda_grid=(0.0, 0.5),
            q_grid=(1.0, 2.0),
        )
        search = CampaignConfig(functions=("poly3", "expx"), trials=5, seed=3)
        gc.collect()
        gc.disable()
        try:
            assert run_campaign(cfg).records
            find_counterexample("thm6-stated", search)
            assert run_campaign(EDGE_CAMPAIGN, {"edge": _raising_from_2()}).records
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFindCounterexample:
    def test_thm6_stated_violation_found_and_shrunk(self):
        cfg = CampaignConfig(
            functions=("poly2",),
            trials=200,
            seed=11,
            q_grid=(1.0, 1.5, 2.0, 4.0),
        )
        out = find_counterexample("thm6-stated", cfg)
        assert out.record is not None
        r = out.record
        assert r.status == "violated"
        assert r.q > 1.0  # stated family only fails beyond q = 1
        assert r.b - r.a <= 1.0 + 1e-6  # shrunk toward unit width
        assert r.exact

    def test_q_shrinks_to_smallest_violating_grid_value(self):
        cfg = CampaignConfig(
            functions=("poly2",),
            trials=200,
            seed=11,
            lambda_grid=(0.0,),
            q_grid=(1.0, 1.5, 2.0, 4.0, 10.0),
        )
        out = find_counterexample("cor1-stated", cfg)
        assert out.record is not None
        # for constant |f''| and lam = 0 every q > 1 violates, so 1.5 is minimal
        assert out.record.q == 1.5

    def test_proof_backed_claim_yields_no_counterexample(self):
        cfg = CampaignConfig(
            functions=("poly2", "poly3", "const1"), trials=300, seed=23
        )
        out = find_counterexample("thm5", cfg)
        assert out.record is None
        assert out.trials == 300

    def test_hh_on_convex_corpus_yields_none(self):
        cfg = CampaignConfig(
            functions=("poly2", "poly3", "poly4", "expx"), trials=150, seed=2
        )
        out = find_counterexample("hh", cfg)
        assert out.record is None

    def test_empty_function_space(self):
        out = find_counterexample("thm5", CampaignConfig(functions=(), trials=10))
        assert out.record is None and out.trials == 0

    def test_zero_trials_searches_no_trial(self):
        out = find_counterexample("thm6-stated", CampaignConfig(functions=("poly2",), trials=0))
        assert (out.record, out.trials) == (None, 0)

    @pytest.mark.filterwarnings("error")
    def test_screen_changes_no_outcome_on_extreme_registries(self, monkeypatch):
        # |f''| of 1e40; every corpus function with an f'' and f'''' that
        # an array evaluation puts 4 ulps nearer 0 than a scalar one at the
        # same point, so the sampled envelope's values at a and b lie inside
        # the scalar endpoint values the screen reads; and two polynomials
        # whose coefficients cancel, which the screen's polynomial rule
        # settles on a bound of their rounding error
        huge = {f.id: f for f in (_huge_flat(), _huge_wave())}
        shifted = {f.id: array_shifted(f) for f in corpus_standard()}
        cancelling = {f.id: f for f in (QUARTIC, SHIFTED_QUINTIC)}
        wide = ((0.1, 10.0), (0.0, 1.0), (-3.0, 3.0))
        cases = [
            (registry, CampaignConfig(
                functions=("all",), trials=30, seed=seed, interval_range=interval_range,
                min_width=0.01, q_grid=(1.0, 2.0, 10.0),
            ))
            for registry, seeds, ranges in (
                (huge, range(4), wide),
                (shifted, range(4), wide),
                (cancelling, range(6), ((0.0, 1.0), (0.0, 6.0), (2.5, 3.5))),
            )
            for seed in seeds
            for interval_range in ranges
        ]
        screened = {
            (claim, k): find_counterexample(claim, cfg, registry)
            for claim in claim_ids()
            for k, (registry, cfg) in enumerate(cases)
        }
        # the proof-backed Simpson bound keeps its rounding-residue hit on 5e39 x^2
        assert screened["simpson-4th-p4", 0].record.function == "huge-flat"
        # the stated constants of theorem 6 and corollaries 1 and 2 fail on
        # the quartic at q = 1
        for claim in ("thm6-stated", "cor1-stated", "cor2-stated"):
            hits = [out.record for (c, _), out in screened.items() if c == claim]
            assert any(r and r.function == "quartic" and r.q == 1.0 for r in hits), claim
        monkeypatch.setattr(harness, "_screen", lambda *args: False)
        for (claim, k), out in screened.items():
            registry, cfg = cases[k]
            assert find_counterexample(claim, cfg, registry) == out, (claim, k)

    @pytest.mark.filterwarnings("error")
    def test_huge_second_derivative_searches_as_unscreened(self):
        # |f''| of 1e40 overflows the float power sum at q = 10, an
        # OverflowError in the float cell of a trial whose hypothesis check
        # returns cleanly; the screen must leave such a trial to the
        # unscreened evaluation, so every outcome is the reference's
        registry = {f.id: f for f in (_huge_flat(), _huge_wave())}
        cfg = CampaignConfig(
            functions=("all",), trials=30, seed=2, q_grid=(1.0, 2.0, 10.0)
        )
        for claim in claim_ids():
            out = find_counterexample(claim, cfg, registry)
            assert (out.record, out.trials) == reference_search(claim, cfg, registry)
            if claim.endswith("-derived"):
                assert (out.record, out.trials) == (None, 30), claim
        out = find_counterexample("thm6-stated", cfg, registry)
        assert out.trials == 3 and out.record.status == "violated"

