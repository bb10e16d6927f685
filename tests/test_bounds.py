"""Bound tests: frozen coefficients, seam continuity, variant relations."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.bounds import (
    DerivativeEnvelope,
    EndpointData,
    bound_bounded_m,
    bound_bounded_m_exact,
    bound_classical,
    bound_classical_exact,
    bound_corollary,
    bound_corollary_exact,
    bound_theorem5,
    bound_theorem5_exact,
    bound_theorem6,
    bound_theorem6_exact,
    bound_theorem6_mp,
    _power_sum,
)
from hhbounds.corpus import Interval, check_p_convex, get_function
from hhbounds.functionals import functional_lambda, hh_gap_left_exact, hh_gap_right_exact
from hhbounds.oracle import to_mpf

UNIT = Interval(0.0, 1.0)

pos = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestTheorem5:
    def test_frozen_values(self):
        # (2/24) * 4 at lam = 1
        assert bound_theorem5(UNIT, 1.0, EndpointData(2, 2)) == pytest.approx(
            1 / 3, abs=1e-15
        )
        assert bound_theorem5(UNIT, 0.7, EndpointData(0, 0)) == 0.0
        # both branches give (1/48) * 2 at the seam
        assert bound_theorem5(UNIT, 0.5, EndpointData(1, 1)) == pytest.approx(
            1 / 24, abs=1e-15
        )

    def test_seam_continuity_exact(self):
        lo = bound_theorem5_exact(UNIT, Fraction(1, 2), 1, 1)
        assert lo == Fraction(1, 24)

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            EndpointData(-1.0, 0.0)


class TestTheorem6:
    def test_frozen_values(self):
        e22 = EndpointData(2, 2)
        # (1/48) * 4
        assert bound_theorem6(UNIT, 0.0, 1.0, e22, "stated") == pytest.approx(
            1 / 12, abs=1e-15
        )
        # proof-chain constant: equals the endpoint-sum bound at q = 1
        assert bound_theorem6(UNIT, 0.0, 1.0, e22, "derived") == pytest.approx(
            1 / 6, abs=1e-15
        )
        # lam = 1/3 stated with unit endpoint data: 2/162
        v = bound_theorem6_exact(UNIT, Fraction(1, 3), 1, 1, 1, "stated")
        assert v == Fraction(2, 162) == Fraction(1, 81)

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_theorem6(UNIT, 0.0, 0.5, EndpointData(1, 1), "stated")
        with pytest.raises(ValueError):
            bound_theorem6(UNIT, 0.0, 1.0, EndpointData(1, 1), "other")
        with pytest.raises(ValueError):
            bound_theorem6_exact(UNIT, 0, 2, 1, 1, "stated")

    @given(
        lam=unit,
        ma=pos,
        mb=pos,
        width=st.floats(min_value=0.01, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_derived_q1_reduces_to_theorem5(self, lam, ma, mb, width):
        dom = Interval(1.0, 1.0 + width)
        e = EndpointData(ma, mb)
        t5 = bound_theorem5(dom, lam, e)
        t6 = bound_theorem6(dom, lam, 1.0, e, "derived")
        assert abs(t5 - t6) <= 1e-15 * max(1.0, abs(t5))

    @given(lam=unit, ma=st.floats(0.1, 10), mb=st.floats(0.1, 10))
    @settings(max_examples=100)
    def test_nonincreasing_in_q(self, lam, ma, mb):
        e = EndpointData(ma, mb)
        values = [
            bound_theorem6(UNIT, lam, q, e, "stated") for q in (1.0, 1.5, 2.0, 4.0, 10.0)
        ]
        for lo_q, hi_q in zip(values[:-1], values[1:]):
            assert hi_q <= lo_q + 1e-14 * max(1.0, lo_q)

    @given(lam=unit, factor=st.sampled_from([2.0, 10.0]))
    def test_quadratic_width_scaling(self, lam, factor):
        e = EndpointData(1.5, 2.5)
        base = bound_theorem5(Interval(0.0, 1.0), lam, e)
        dilated = bound_theorem5(Interval(0.0, factor), lam, e)
        assert dilated == pytest.approx(factor**2 * base, rel=1e-13)
        s6 = bound_theorem6(Interval(0.0, factor), lam, 2.0, e, "stated")
        b6 = bound_theorem6(Interval(0.0, 1.0), lam, 2.0, e, "stated")
        assert s6 == pytest.approx(factor**2 * b6, rel=1e-13)

    def test_mp_path_matches_exact_at_q1(self):
        v = bound_theorem6_mp(UNIT, Fraction(1, 3), 1, 1, 1, "stated")
        assert float(v) == pytest.approx(1 / 81, abs=1e-16)


class TestCorollary:
    def test_dispatch(self):
        # trapezoid: (1/24) * 4
        assert bound_corollary(
            "trapezoid", UNIT, 1.0, EndpointData(2, 2), "stated"
        ) == pytest.approx(1 / 6, abs=1e-15)
        # midpoint q = 2: (1/48) * sqrt(8)
        assert bound_corollary(
            "midpoint", UNIT, 2.0, EndpointData(2, 2), "stated"
        ) == pytest.approx(math.sqrt(8) / 48, abs=1e-15)
        assert bound_corollary("simpson", UNIT, 1.0, EndpointData(0, 0), "stated") == 0.0

    def test_exact(self):
        assert bound_corollary_exact("trapezoid", UNIT, 1, 2, 2, "stated") == Fraction(
            1, 6
        )


class TestBoundedM:
    def test_frozen_values(self):
        env1 = DerivativeEnvelope(sup_abs_d2=1.0)
        assert bound_bounded_m("midpoint", UNIT, 1.0, env1, "relaxed") == pytest.approx(
            1 / 24, abs=1e-16
        )
        assert bound_bounded_m("trapezoid", UNIT, 1.0, env1, "relaxed") == pytest.approx(
            1 / 12, abs=1e-16
        )
        # (1/162) * 2^(1/1)
        assert bound_bounded_m("simpson", UNIT, 1.0, env1, "with_q") == pytest.approx(
            1 / 81, abs=1e-16
        )

    def test_exact(self):
        assert bound_bounded_m_exact("midpoint", UNIT, 1, 1, "relaxed") == Fraction(1, 24)
        assert bound_bounded_m_exact("simpson", UNIT, 1, 1, "with_q") == Fraction(1, 81)

    def test_requires_m(self):
        with pytest.raises(ValueError):
            bound_bounded_m("midpoint", UNIT, 1.0, DerivativeEnvelope(), "relaxed")

    @given(q=st.floats(1.0, 20.0), m=st.floats(0.0, 10.0))
    def test_with_q_below_relaxed(self, q, m):
        env = DerivativeEnvelope(sup_abs_d2=m)
        for rule in ("midpoint", "trapezoid", "simpson"):
            wq = bound_bounded_m(rule, UNIT, q, env, "with_q")
            rel = bound_bounded_m(rule, UNIT, q, env, "relaxed")
            assert wq <= rel + 1e-15

    def test_root_of_two_follows_working_precision(self):
        # 2^(1/q) is cached per q; an mpf root (q = 5/3), taken at 50 digits
        # or more, is not reused at 60, and repeated calls give the same
        # value; an exact root (q = 3/2) is the same at every precision
        env = DerivativeEnvelope(sup_abs_d2=Fraction(7, 3))
        dom = Interval(Fraction(1), Fraction(5, 2))
        c = Fraction(7, 3) * Fraction(9, 4) / 162
        q = Fraction(5, 3)
        with mpmath.workdps(15):
            low = bound_bounded_m("simpson", dom, q, env, "with_q")
        with mpmath.workdps(60):
            high = [bound_bounded_m("simpson", dom, q, env, "with_q") for _ in range(2)]
            root = _power_sum(Fraction(1), Fraction(1), q)
            assert high == [to_mpf(c) * root] * 2
        with mpmath.workdps(50):
            assert low == to_mpf(c) * _power_sum(Fraction(1), Fraction(1), q)
        assert high[0] != low
        exact = [bound_bounded_m("simpson", dom, Fraction(3, 2), env, "with_q")]
        with mpmath.workdps(60):
            exact.append(bound_bounded_m("simpson", dom, Fraction(3, 2), env, "with_q"))
            assert abs(mpmath.mpf(exact[1]) - c * mpmath.cbrt(4)) < mpmath.mpf(10) ** -60
        assert [(e.cn, e.cd) for e in exact] == [c.as_integer_ratio()] * 2
        assert float(exact[0]) == float(exact[1])
        assert bound_bounded_m("simpson", UNIT, 2.0, DerivativeEnvelope(sup_abs_d2=1.0),
                               "with_q") == 1.0 / 162 * 2.0**0.5


class TestClassical:
    def test_trapezoid_enclosure_equals_gap_for_x_squared(self):
        env = DerivativeEnvelope(lower_d2=2.0, upper_d2=2.0)
        lo, hi = bound_classical("trapezoid", UNIT, env)
        assert lo == pytest.approx(1 / 6, abs=1e-16)
        assert hi == pytest.approx(1 / 6, abs=1e-16)
        lo_e, hi_e = bound_classical_exact("trapezoid", UNIT, lower_d2=2, upper_d2=2)
        assert lo_e == hi_e == Fraction(1, 6) == hh_gap_right_exact(
            get_function("poly2"), UNIT
        )

    def test_midpoint_enclosure_equals_gap_for_x_squared(self):
        env = DerivativeEnvelope(lower_d2=2.0, upper_d2=2.0)
        assert bound_classical("midpoint", UNIT, env) == (
            pytest.approx(1 / 12),
            pytest.approx(1 / 12),
        )
        lo_e, hi_e = bound_classical_exact("midpoint", UNIT, lower_d2=2, upper_d2=2)
        assert lo_e == hi_e == Fraction(1, 12) == hh_gap_left_exact(
            get_function("poly2"), UNIT
        )

    def test_simpson_zero_fourth_derivative(self):
        env = DerivativeEnvelope(sup_abs_d4=0.0)
        assert bound_classical("simpson", UNIT, env) == 0.0

    def test_simpson_exponent_variants(self):
        env = DerivativeEnvelope(sup_abs_d4=24.0)
        dom = Interval(0.0, 2.0)
        assert bound_classical("simpson", dom, env, p=4) == pytest.approx(
            24 * 16 / 2880
        )
        assert bound_classical("simpson", dom, env, p=2) == pytest.approx(24 * 4 / 2880)
        with pytest.raises(ValueError):
            bound_classical("simpson", dom, env, p=3)

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            DerivativeEnvelope(lower_d2=2.0, upper_d2=1.0)
        with pytest.raises(ValueError):
            bound_classical("trapezoid", UNIT, DerivativeEnvelope())


class TestSoundnessSpotChecks:
    @pytest.mark.parametrize("fid", ["poly2", "poly3", "poly4", "poly5", "expx", "const1"])
    def test_derived_bound_dominates_functional(self, fid):
        # full-grid sweep lives in the acceptance suite
        fn = get_function(fid)
        rng = random.Random(17)
        for _ in range(5):
            a = rng.uniform(0.1, 8.0)
            b = rng.uniform(a + 0.1, min(10.0, a + 5.0))
            dom = Interval(a, b)
            assert check_p_convex(
                lambda x: abs(fn.d2(x)), dom
            ).passed, f"|d2| of {fid} not P-convex on [{a}, {b}]"
            e = EndpointData(abs(float(fn.d2(a))), abs(float(fn.d2(b))))
            for lam in (0.0, 0.3, 0.5, 0.8, 1.0):
                lhs = abs(functional_lambda(fn, dom, lam).value)
                assert lhs <= bound_theorem5(dom, lam, e) + 1e-9 * max(1.0, lhs)
                for q in (1.0, 2.0, 10.0):
                    rhs = bound_theorem6(dom, lam, q, e, "derived")
                    assert lhs <= rhs + 1e-9 * max(1.0, lhs)
