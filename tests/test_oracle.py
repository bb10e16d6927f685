"""Oracle tests: frozen antiderivative values, exactness, error contracts."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from hhbounds.corpus import Interval, corpus_standard
from hhbounds.oracle import (
    ConvergenceError,
    EvaluationError,
    QuadratureResult,
    integrate,
    integrate_exact_poly,
    poly_derivative_coeffs,
    poly_eval_exact,
    to_mpf,
)


class TestIntegrate:
    def test_x_squared_unit_interval(self):
        # antiderivative x^3/3
        res = integrate(lambda x: x**2, (0.0, 1.0))
        assert res.value == pytest.approx(1 / 3, abs=1e-13)
        assert res.err_estimate >= 0

    def test_zero_integrand_is_exact(self):
        res = integrate(lambda x: 0.0 * x, (0.0, 1.0))
        assert res.value == 0.0
        assert res.err_estimate == 0.0

    def test_x_cubed(self):
        # (2^4 - 1^4)/4 = 15/4
        res = integrate(lambda x: x**3, (1.0, 2.0))
        assert res.value == pytest.approx(15 / 4, abs=1e-13)

    def test_accepts_interval_object(self):
        res = integrate(lambda x: x, Interval(0.0, 2.0))
        assert res.value == pytest.approx(2.0, abs=1e-13)

    def test_scalar_only_integrand(self):
        def g(x):
            if hasattr(x, "__len__"):
                raise TypeError("scalars only")
            return math.sin(x)

        res = integrate(g, (0.0, math.pi))
        assert res.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("deg", range(11))
    def test_polynomial_error_estimate_contract(self, deg):
        # degree <= 10: err_estimate <= 1e-13 (1 + |value|)
        for lo, hi in [(0.0, 1.0), (1.0, 2.0), (0.1, 10.0)]:
            res = integrate(lambda x, d=deg: x**d, (lo, hi))
            exact = (hi ** (deg + 1) - lo ** (deg + 1)) / (deg + 1)
            assert res.err_estimate <= 1e-13 * (1 + abs(res.value))
            assert abs(res.value - exact) <= max(res.err_estimate, 1e-12)

    def test_narrow_bump_found_inside_wide_domain(self):
        bump = next(f for f in corpus_standard() if f.id == "bump")
        res = integrate(bump.f, (0.1, 10.0), 1e-12)
        assert res.value == pytest.approx(bump.exact_integral(0.1, 10.0), abs=1e-10)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(EvaluationError):
            integrate(lambda x: float("nan") + 0.0 * x, (0.0, 1.0))

    def test_raising_integrand_raises(self):
        def g(x):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError):
            integrate(g, (0.0, 1.0))

    def test_budget_exhaustion_carries_partial(self):
        # a kink needs many panels at this tolerance; budget of 2 cannot do it
        g = lambda x: np.sqrt(np.abs(x - 1 / 3))  # noqa: E731
        with pytest.raises(ConvergenceError) as exc:
            integrate(g, (0.0, 1.0), 1e-15, max_subdivisions=2)
        partial = exc.value.partial
        assert isinstance(partial, QuadratureResult)
        # antiderivative pieces: (2/3)[(1/3)^(3/2) + (2/3)^(3/2)]
        true_value = (2 / 3) * ((1 / 3) ** 1.5 + (2 / 3) ** 1.5)
        assert partial.value == pytest.approx(true_value, abs=1e-2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, (1.0, 1.0))
        with pytest.raises(ValueError):
            integrate(lambda x: x, (0.0, 1.0), tol=0.0)

    def test_deterministic(self):
        r1 = integrate(np.exp, (0.0, 5.0))
        r2 = integrate(np.exp, (0.0, 5.0))
        assert r1 == r2


class TestOracleProperties:
    def test_linearity_on_corpus(self):
        fns = {f.id: f for f in corpus_standard()}
        g, h = fns["poly2"], fns["expx"]
        dom = (0.5, 2.0)
        lhs = integrate(lambda x: 3.0 * g.f(x) - 2.0 * h.f(x), dom).value
        rhs = 3.0 * integrate(g.f, dom).value - 2.0 * integrate(h.f, dom).value
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_agreement_exact_vs_adaptive_on_polynomials(self):
        for f in corpus_standard():
            if f.poly_coeffs is None:
                continue
            exact = float(integrate_exact_poly(f.poly_coeffs, (Fraction(1), Fraction(3))))
            num = integrate(f.f, (1.0, 3.0)).value
            assert num == pytest.approx(exact, rel=1e-13)

    def test_interval_additivity(self):
        for dom_lo, dom_mid, dom_hi in [(0.0, 0.7, 2.0), (1.0, 1.1, 4.0)]:
            whole = integrate(np.exp, (dom_lo, dom_hi)).value
            parts = (
                integrate(np.exp, (dom_lo, dom_mid)).value
                + integrate(np.exp, (dom_mid, dom_hi)).value
            )
            assert whole == pytest.approx(parts, abs=1e-12 * (1 + abs(whole)))


class TestExactPoly:
    def test_x_cubed_on_1_2(self):
        assert integrate_exact_poly([0, 0, 0, 1], (Fraction(1), Fraction(2))) == Fraction(15, 4)

    def test_constant_one(self):
        assert integrate_exact_poly([1], (Fraction(0), Fraction(1))) == 1

    def test_x_squared_unit(self):
        assert integrate_exact_poly([0, 0, 1], (Fraction(0), Fraction(1))) == Fraction(1, 3)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            integrate_exact_poly([], (0, 1))

    def test_float_endpoints_are_exact_binary_rationals(self):
        v = integrate_exact_poly([0, 1], (0.0, 0.5))
        assert v == Fraction(1, 8)

    def test_poly_eval_and_derivative(self):
        coeffs = (Fraction(1), Fraction(-2), Fraction(3))  # 1 - 2x + 3x^2
        assert poly_eval_exact(coeffs, Fraction(2)) == 9
        d1 = poly_derivative_coeffs(coeffs)
        assert d1 == (Fraction(-2), Fraction(6))
        d3 = poly_derivative_coeffs(coeffs, 3)
        assert d3 == (Fraction(0),)


BIG = 2**300


@pytest.mark.parametrize("dps", [30, 50, 80])
@settings(max_examples=100, deadline=None)
@given(n=st.integers(-BIG, BIG), d=st.integers(1, BIG))
@example(n=1, d=3)
@example(n=2**400 + 1, d=3**250)  # both parts wider than 80 digits
def test_to_mpf_is_the_correctly_rounded_rational(dps, n, d):
    x = Fraction(n, d)
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        got = to_mpf(x)
        assert got == mpmath.mp.make_mpf(from_rational(n, d, prec, round_nearest))
        if n:
            # |got| = man 2^exp, within half a unit in the last of prec bits
            man, exp = got.man_exp
            ulp = Fraction(2) ** (exp + man.bit_length() - prec)
            assert (got < 0) == (x < 0)
            assert abs(man * Fraction(2) ** exp - abs(x)) <= ulp / 2


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_to_mpf_of_a_float_is_its_value(x):
    with mpmath.workdps(30):
        assert to_mpf(x) == mpmath.mpf(x)

