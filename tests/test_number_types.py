"""Each closed form is written once and runs in float, Fraction or mpf.

The reference expressions below are the earlier per-type copies, written
out literally: on floats the single formula must equal them bit for bit
(reports depend on every bit), on Fractions it must equal them exactly,
and the 50-digit bound must agree with them to far below double precision.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import bounds, functionals, kernel
from hhbounds.bounds import DerivativeEnvelope, EndpointData
from hhbounds.corpus import Interval
from hhbounds.oracle import to_mpf
from hhbounds.records import classify

RULES = ("midpoint", "trapezoid", "simpson")
RULE_LAMBDA = {"midpoint": 0.0, "trapezoid": 1.0, "simpson": 1.0 / 3.0}
STATED_DENOMINATOR = {"midpoint": 48, "trapezoid": 24, "simpson": 162}

unit = st.floats(0.0, 1.0)
value = st.floats(-1e6, 1e6)
nonneg = st.floats(0.0, 1e3)
q_float = st.floats(1.0, 20.0)
variant = st.sampled_from(("stated", "derived"))
rule = st.sampled_from(RULES)
unit_frac = st.fractions(0, 1, max_denominator=10**6)
nonneg_frac = st.fractions(0, 1000, max_denominator=10**6)
value_frac = st.fractions(-1000, 1000, max_denominator=10**6)


@st.composite
def intervals(draw):
    lo = draw(st.floats(-100.0, 100.0))
    return Interval(lo, lo + draw(st.floats(1e-3, 50.0)))


# -- the earlier float and exact expressions, literally ----------------------


def moment_float(lam):
    if lam <= 0.5:
        return lam**3 / 3.0 - lam / 8.0 + 1.0 / 24.0
    return lam / 8.0 - 1.0 / 24.0


def moment_exact(lf):
    if lf <= Fraction(1, 2):
        return lf**3 / 3 - lf / 8 + Fraction(1, 24)
    return lf / 8 - Fraction(1, 24)


def power_sum_float(m_a, m_b, q):
    if q == 1.0:
        return m_a + m_b
    return (m_a**q + m_b**q) ** (1.0 / q)


def theorem6_float(dom, lam, q, m_a, m_b, v):
    factor = 1.0 if v == "derived" else 0.5
    return dom.width**2 * moment_float(lam) * power_sum_float(m_a, m_b, q) * factor


class TestFloatBitForBit:
    @given(lam=unit)
    def test_moments(self, lam):
        assert kernel.weighted_moment(lam) == moment_float(lam)
        if lam <= 0.5:
            expected = lam**3 / 3.0 - lam / 8.0 + 1.0 / 24.0
            assert kernel.weighted_moment_small_lambda(lam) == expected
        else:
            assert kernel.weighted_moment_large_lambda(lam) == lam / 8.0 - 1.0 / 24.0

    @given(t=unit, lam=unit)
    def test_kernel_value(self, t, lam):
        if t <= 0.5:
            expected = 0.5 * t * (t - lam)
        else:
            expected = 0.5 * (1.0 - t) * (1.0 - lam - t)
        assert kernel.kernel_value(t, lam) == expected

    @given(dom=intervals(), lam=unit, m_a=nonneg, m_b=nonneg, q=q_float, v=variant)
    @settings(max_examples=200)
    def test_theorem5_and_6(self, dom, lam, m_a, m_b, q, v):
        e = EndpointData(m_a, m_b)
        t5 = dom.width**2 * moment_float(lam) * (m_a + m_b)
        assert bounds.bound_theorem5(dom, lam, e) == t5
        assert bounds.bound_theorem6(dom, lam, q, e, v) == theorem6_float(
            dom, lam, q, m_a, m_b, v
        )
        assert bounds.bound_theorem6(dom, lam, 1.0, e, v) == theorem6_float(
            dom, lam, 1.0, m_a, m_b, v
        )

    @given(dom=intervals(), r=rule, m_a=nonneg, m_b=nonneg, q=q_float, v=variant)
    def test_corollary(self, dom, r, m_a, m_b, q, v):
        got = bounds.bound_corollary(r, dom, q, EndpointData(m_a, m_b), v)
        assert got == theorem6_float(dom, RULE_LAMBDA[r], q, m_a, m_b, v)

    @given(dom=intervals(), r=rule, m=nonneg, q=q_float, v=variant)
    def test_bounded_m(self, dom, r, m, q, v):
        denom = STATED_DENOMINATOR[r] // (2 if v == "derived" else 1)
        env = DerivativeEnvelope(sup_abs_d2=m)
        with_q = m * dom.width**2 / denom * 2.0 ** (1.0 / q)
        relaxed = m * dom.width**2 / denom * 2.0
        assert bounds.bound_bounded_m(r, dom, q, env, "with_q", v) == with_q
        assert bounds.bound_bounded_m(r, dom, q, env, "relaxed", v) == relaxed

    @given(dom=intervals(), lo=value, span=nonneg, d4=nonneg, p=st.sampled_from((2, 4)))
    def test_classical(self, dom, lo, span, d4, p):
        hi = lo + span
        env = DerivativeEnvelope(lower_d2=lo, upper_d2=hi, sup_abs_d4=d4)
        w = dom.width
        half_sq = (w / 2.0) ** 2
        assert bounds.bound_classical("trapezoid", dom, env) == (
            lo / 3.0 * half_sq,
            hi / 3.0 * half_sq,
        )
        assert bounds.bound_classical("midpoint", dom, env) == (
            lo * w**2 / 24.0,
            hi * w**2 / 24.0,
        )
        assert bounds.bound_classical("simpson", dom, env, p) == d4 * w**p / 2880.0

    @given(fa=value, fm=value, fb=value, avg=value, lam=unit)
    def test_functionals(self, fa, fm, fb, avg, lam):
        s = (fa, fm, fb, avg)
        expected = (lam - 1.0) * fm - lam * (fa + fb) / 2.0 + avg
        assert functionals._lambda_value(s, lam) == expected
        assert functionals._gap_left(s) == avg - fm
        assert functionals._gap_right(s) == (fa + fb) / 2.0 - avg
        assert functionals._simpson_value(s) == ((fa + fb) / 2.0 + 2.0 * fm) / 3.0 - avg


class TestFractionExact:
    @given(lf=unit_frac)
    def test_moments(self, lf):
        assert kernel.weighted_moment(lf) == moment_exact(lf)
        assert kernel.weighted_moment_exact(lf) == moment_exact(lf)
        assert type(kernel.weighted_moment(lf)) is Fraction

    @given(tf=unit_frac, lf=unit_frac)
    def test_kernel_value(self, tf, lf):
        if tf <= Fraction(1, 2):
            expected = tf * (tf - lf) / 2
        else:
            expected = (1 - tf) * (1 - lf - tf) / 2
        assert kernel.kernel_value_exact(tf, lf) == expected

    @given(
        lo=value_frac, width=st.fractions(Fraction(1, 1000), 50, max_denominator=10**6),
        lf=unit_frac, m_a=nonneg_frac, m_b=nonneg_frac, v=variant, r=rule,
    )
    def test_bounds(self, lo, width, lf, m_a, m_b, v, r):
        dom = Interval(lo, lo + width)
        factor = 1 if v == "derived" else Fraction(1, 2)
        t6 = width**2 * moment_exact(lf) * (m_a + m_b) * factor
        assert bounds.bound_theorem5_exact(dom, lf, m_a, m_b) == width**2 * moment_exact(
            lf
        ) * (m_a + m_b)
        assert bounds.bound_theorem6_exact(dom, lf, 1, m_a, m_b, v) == t6
        lam_r = bounds.RULE_LAMBDA_EXACT[r]
        assert bounds.bound_corollary_exact(r, dom, 1, m_a, m_b, v) == (
            width**2 * moment_exact(lam_r) * (m_a + m_b) * factor
        )
        denom = STATED_DENOMINATOR[r] // (2 if v == "derived" else 1)
        for form in ("with_q", "relaxed"):
            assert bounds.bound_bounded_m_exact(r, dom, 1, m_a, form, v) == (
                m_a * width**2 / denom * 2
            )
        half_sq = (width / 2) ** 2
        assert bounds.bound_classical_exact(
            "trapezoid", dom, lower_d2=m_a, upper_d2=m_a + m_b
        ) == (m_a / 3 * half_sq, (m_a + m_b) / 3 * half_sq)
        assert bounds.bound_classical_exact(
            "midpoint", dom, lower_d2=m_a, upper_d2=m_a + m_b
        ) == (m_a * width**2 / 24, (m_a + m_b) * width**2 / 24)
        assert bounds.bound_classical_exact(
            "simpson", dom, sup_abs_d4=m_b
        ) == m_b * width**4 / 2880

    @given(fa=value_frac, fm=value_frac, fb=value_frac, avg=value_frac, lf=unit_frac)
    def test_functionals(self, fa, fm, fb, avg, lf):
        s = (fa, fm, fb, avg)

        def lam_value(lam):
            return (lam - 1) * fm - lam * (fa + fb) / 2 + avg

        assert functionals._lambda_value(s, lf) == lam_value(lf)
        assert functionals._gap_left(s) == avg - fm
        assert functionals._gap_right(s) == (fa + fb) / 2 - avg
        # the Simpson deviation was defined as -F(1/3) on the exact path
        assert functionals._simpson_value(s) == -lam_value(Fraction(1, 3))
        assert type(functionals._lambda_value(s, lf)) is Fraction


class TestMpRoot:
    @given(
        lo=value_frac, width=st.fractions(Fraction(1, 1000), 50, max_denominator=10**6),
        lf=unit_frac, m_a=nonneg_frac, m_b=nonneg_frac, v=variant,
        q=st.sampled_from((1.5, 2.0, 4.0, 10.0)),
    )
    @settings(max_examples=50)
    def test_theorem6_mp_matches_50_digit_form(self, lo, width, lf, m_a, m_b, v, q):
        dom = Interval(lo, lo + width)
        got = bounds.bound_theorem6_mp(dom, lf, q, m_a, m_b, v)
        with mpmath.workdps(50):
            qm = to_mpf(Fraction(q))
            s = (to_mpf(m_a) ** qm + to_mpf(m_b) ** qm) ** (1 / qm)
            factor = 1 if v == "derived" else mpmath.mpf(0.5)
            expected = to_mpf(width) ** 2 * to_mpf(moment_exact(lf)) * s * factor
            assert abs(got - expected) <= mpmath.mpf(10) ** -45 * (1 + abs(expected))
        assert isinstance(got, mpmath.mpf)


class TestClassify:
    def test_exact_zero_is_equality_and_tiny_exact_margin_holds(self):
        assert classify(Fraction(1, 3), Fraction(1, 3), 1e-9, 1e-12)[0] == "equality"
        tiny = Fraction(1, 10**30)
        assert classify(Fraction(1, 3), Fraction(1, 3) + tiny, 1e-9, 1e-12)[0] == "holds"

    def test_inexact_band_is_equality(self):
        assert classify(1.0, 1.0 + 1e-13, 1e-9, 1e-12)[0] == "equality"
        with mpmath.workdps(50):
            status = classify(Fraction(1, 3), to_mpf(Fraction(1, 3)), 1e-9, 1e-12)[0]
        assert status == "equality"

    def test_violation_is_relative_to_scale(self):
        assert classify(1e6, 1e6 - 1e-4, 1e-9, 1e-12)[0] == "holds"
        assert classify(1e6, 1e6 - 1e-2, 1e-9, 1e-12)[0] == "violated"

    def test_nan_margin_is_undefined(self):
        assert classify(float("nan"), 1.0, 1e-9, 1e-12)[0] == "undefined"

    @pytest.mark.parametrize("lhs,rhs", [(Fraction(3, 8), Fraction(1, 2)), (0.375, 0.5)])
    def test_returns_floats(self, lhs, rhs):
        status, lhs_f, rhs_f, margin_f = classify(lhs, rhs, 1e-9, 1e-12)
        assert status == "holds"
        assert (lhs_f, rhs_f, margin_f) == (0.375, 0.5, 0.125)
        assert all(type(x) is float for x in (lhs_f, rhs_f, margin_f))
