"""Functional tests: frozen gap values, the kernel identity, invariants."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.corpus import Interval, TestFunction, corpus_standard, get_function
from hhbounds.functionals import (
    average_value,
    average_value_exact,
    functional_lambda,
    functional_lambda_exact,
    hh_gap_left,
    hh_gap_left_exact,
    hh_gap_right,
    hh_gap_right_exact,
    hh_p_check,
    identity_residual,
    identity_rhs,
    simpson_deviation,
    simpson_deviation_exact,
)

POLYS = [f for f in corpus_standard() if f.poly_coeffs is not None]
UNIT = Interval(0.0, 1.0)
ONE_TWO = Interval(1.0, 2.0)


def _linear(c0: float, c1: float) -> TestFunction:
    coeffs = (Fraction(c0), Fraction(c1))
    return TestFunction(
        id="lin",
        f=lambda x: c0 + c1 * x,
        d1=lambda x: c1 + 0.0 * x,
        d2=lambda x: 0.0 * x,
        domain=Interval(-100.0, 100.0),
        poly_coeffs=coeffs,
    )


class TestFunctionalLambda:
    def test_x_squared_midpoint_gap(self):
        # 1/3 - 1/4 = 1/12
        v = functional_lambda(get_function("poly2"), UNIT, 0.0)
        assert v.value == pytest.approx(1 / 12, abs=1e-15)
        assert v.abs_value == v.value

    def test_constant_vanishes_for_every_lambda(self):
        c = get_function("const1")
        for lam in np.linspace(0, 1, 11):
            assert functional_lambda(c, UNIT, float(lam)).value == pytest.approx(
                0.0, abs=1e-15
            )

    def test_x_squared_trapezoid(self):
        # -1/2 + 1/3 = -1/6
        v = functional_lambda(get_function("poly2"), UNIT, 1.0)
        assert v.value == pytest.approx(-1 / 6, abs=1e-15)

    def test_exact_path(self):
        assert functional_lambda_exact(get_function("poly2"), UNIT, 0) == Fraction(1, 12)
        assert functional_lambda_exact(get_function("poly2"), UNIT, 1) == Fraction(-1, 6)

    def test_domain_check(self):
        bump = get_function("bump")
        with pytest.raises(ValueError):
            functional_lambda(bump, Interval(0.0, 3.0), 0.5)

    def test_average_value_routes(self):
        # polynomial goes through the exact route
        assert average_value(get_function("poly3"), ONE_TWO) == pytest.approx(15 / 4)
        assert average_value_exact(get_function("poly3"), ONE_TWO) == Fraction(15, 4)
        # exp goes through the closed-form antiderivative
        e = get_function("expx")
        assert average_value(e, UNIT) == pytest.approx(np.e - 1, abs=1e-13)
        with pytest.raises(ValueError):
            average_value_exact(e, UNIT)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(
        st.integers(-50, 50)
        | st.fractions(-1000, 1000, max_denominator=1000)
        | st.floats(-1e6, 1e6),
        min_size=1,
        max_size=7,
    ),
    lo=st.floats(-100, 100),
    width=st.floats(1e-9, 100) | st.sampled_from([5e-324, 1e-300]),
)
def test_float_average_is_the_exact_one_rounded(coeffs, lo, width):
    # the float average of a polynomial is one integer ratio, never reduced
    # to a Fraction; true division rounds it correctly
    domain = Interval(lo, lo + width) if lo < lo + width else Interval(lo, lo + 1.0)
    fn = TestFunction(
        id="p", f=lambda x: x, d1=lambda x: x, d2=lambda x: x,
        domain=Interval(-1000.0, 1000.0),
        poly_coeffs=tuple(Fraction(c) for c in coeffs),
    )
    assert average_value(fn, domain) == float(average_value_exact(fn, domain))


class TestIdentity:
    def test_x_squared_lam_one_both_sides(self):
        p2 = get_function("poly2")
        lhs = functional_lambda(p2, UNIT, 1.0).value
        rhs = identity_rhs(p2, UNIT, 1.0)
        assert lhs == pytest.approx(-1 / 6, abs=1e-13)
        assert rhs == pytest.approx(-1 / 6, abs=1e-12)
        assert identity_residual(p2, UNIT, 1.0) <= 1e-12

    def test_constant_residual_zero(self):
        assert identity_residual(get_function("const1"), UNIT, 0.3) <= 1e-15

    def test_x_cubed_generic_lambda(self):
        assert identity_residual(get_function("poly3"), ONE_TWO, 1 / 3) <= 1e-12

    def test_exp_residual_small(self):
        assert identity_residual(get_function("expx"), ONE_TWO, 0.7) <= 1e-10

    def test_corpus_polynomials_sweep(self):
        # broader sweep (21-point grid, 20 intervals) lives in the acceptance suite
        rng = random.Random(5)
        for fn in POLYS:
            for _ in range(3):
                a = rng.uniform(0.1, 9.0)
                b = rng.uniform(a + 0.1, 10.0)
                for lam in (0.0, 0.45, 1.0):
                    assert identity_residual(fn, Interval(a, b), lam) <= 1e-10


class TestGaps:
    def test_x_squared(self):
        p2 = get_function("poly2")
        assert hh_gap_left(p2, UNIT) == pytest.approx(1 / 12, abs=1e-15)
        assert hh_gap_right(p2, UNIT) == pytest.approx(1 / 6, abs=1e-15)
        assert hh_gap_left_exact(p2, UNIT) == Fraction(1, 12)
        assert hh_gap_right_exact(p2, UNIT) == Fraction(1, 6)

    def test_linear_gaps_vanish(self):
        lin = _linear(2.0, 3.0)
        assert hh_gap_left(lin, UNIT) == pytest.approx(0.0, abs=1e-15)
        assert hh_gap_right(lin, UNIT) == pytest.approx(0.0, abs=1e-15)

    def test_x_cubed_on_1_2(self):
        p3 = get_function("poly3")
        # avg = 15/4, f(1.5) = 27/8, (1 + 8)/2 = 9/2
        assert hh_gap_left(p3, ONE_TWO) == pytest.approx(3 / 8, abs=1e-15)
        assert hh_gap_right(p3, ONE_TWO) == pytest.approx(3 / 4, abs=1e-15)


class TestHHPCheck:
    def test_examples(self):
        # 1/4 <= 2/3 <= 2
        assert hh_p_check(get_function("poly2"), UNIT)
        # 1 <= 2 <= 4
        assert hh_p_check(get_function("const1"), UNIT)
        # 27/8 <= 15/2 <= 18
        assert hh_p_check(get_function("poly3"), ONE_TWO)

    def test_bump_fails_around_peak(self):
        # f(m) = 1 but the average over [0.4, 0.6] is ~0.28
        assert not hh_p_check(get_function("bump"), Interval(0.4, 0.6))


class TestSimpsonDeviation:
    def test_cubic_exactness(self):
        assert simpson_deviation(get_function("poly3"), UNIT).value == pytest.approx(
            0.0, abs=1e-15
        )
        assert simpson_deviation_exact(get_function("poly3"), UNIT) == 0

    def test_x_fourth(self):
        # (1/3)(1/2 + 2/16) - 1/5 = 1/120
        v = simpson_deviation(get_function("poly4"), UNIT)
        assert v.value == pytest.approx(1 / 120, abs=1e-15)
        assert simpson_deviation_exact(get_function("poly4"), UNIT) == Fraction(1, 120)

    def test_constant(self):
        assert simpson_deviation(get_function("const1"), UNIT).value == 0.0


class TestInvariants:
    @pytest.mark.parametrize("fn", corpus_standard(), ids=lambda f: f.id)
    def test_simpson_matches_functional_at_one_third(self, fn):
        dom = Interval(
            max(fn.domain.lo, 0.25), min(fn.domain.hi, 0.875)
        )
        assert abs(functional_lambda(fn, dom, 1 / 3).value) == pytest.approx(
            abs(simpson_deviation(fn, dom).value), abs=1e-14
        )

    @pytest.mark.parametrize("fn", corpus_standard(), ids=lambda f: f.id)
    def test_lambda_endpoints_recover_gaps(self, fn):
        dom = Interval(
            max(fn.domain.lo, 0.25), min(fn.domain.hi, 0.875)
        )
        assert functional_lambda(fn, dom, 0.0).value == pytest.approx(
            hh_gap_left(fn, dom), abs=1e-14
        )
        assert functional_lambda(fn, dom, 1.0).value == pytest.approx(
            -hh_gap_right(fn, dom), abs=1e-14
        )

    @given(
        c0=st.floats(-5, 5, allow_nan=False),
        c1=st.floats(-5, 5, allow_nan=False),
        lam=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_affine_invariance(self, c0, c1, lam):
        # adding c0 + c1 x to f leaves the functional unchanged
        p2 = get_function("poly2")
        base = functional_lambda(p2, ONE_TWO, lam).value

        coeffs = (Fraction(c0), Fraction(c1) + 0, Fraction(1))
        shifted = TestFunction(
            id="shifted",
            f=lambda x: c0 + c1 * x + x**2,
            d1=lambda x: c1 + 2.0 * x,
            d2=lambda x: 2.0 + 0.0 * x,
            domain=Interval(-100.0, 100.0),
            poly_coeffs=coeffs,
        )
        assert functional_lambda(shifted, ONE_TWO, lam).value == pytest.approx(
            base, abs=1e-12
        )
