"""Special-means tests: closed forms, oracle agreement, proposition checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.means import (
    check_proposition,
    generalized_log_pow_exact,
    mean_arithmetic,
    mean_generalized_log,
    mean_logarithmic,
)
from hhbounds.oracle import integrate

pos_pair = st.tuples(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)


class TestMeans:
    def test_arithmetic(self):
        assert mean_arithmetic(1.0, 2.0) == 1.5

    def test_logarithmic_at_e(self):
        # ln(e) - ln(1) = 1
        assert mean_logarithmic(1.0, math.e) == pytest.approx(math.e - 1, abs=1e-14)

    def test_generalized_log(self):
        # (2^4 - 1)/(4 * 1) = 15/4
        assert mean_generalized_log(1.0, 2.0, 3) == pytest.approx(
            (15 / 4) ** (1 / 3), abs=1e-14
        )

    def test_negative_order_gives_geometric_mean(self):
        # L_{-2}(a, b) = sqrt(ab)
        assert mean_generalized_log(1.0, 4.0, -2) == pytest.approx(2.0, abs=1e-13)
        assert generalized_log_pow_exact(1, 4, -2) == Fraction(1, 4)

    def test_errors(self):
        with pytest.raises(ValueError):
            mean_logarithmic(2.0, 2.0)
        with pytest.raises(ValueError):
            mean_logarithmic(-1.0, 2.0)
        with pytest.raises(ValueError):
            mean_generalized_log(1.0, 2.0, 0)
        with pytest.raises(ValueError):
            mean_generalized_log(1.0, 2.0, -1)
        with pytest.raises(ValueError):
            mean_arithmetic(0.0, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pow_mean_matches_average_of_monomial(self, n):
        rng = random.Random(n)
        for _ in range(6):
            a = rng.uniform(0.05, 9.0)
            b = rng.uniform(a + 0.05, 10.0)
            avg = integrate(lambda x: x**n, (a, b)).value / (b - a)
            ln_pow = mean_generalized_log(a, b, n) ** n
            assert ln_pow == pytest.approx(avg, rel=1e-13)

    @given(pair=pos_pair)
    @settings(max_examples=100)
    def test_ordering_min_log_arith_max(self, pair):
        a, b = pair
        if abs(a - b) < 1e-6 * max(a, b):
            return
        lo, hi = min(a, b), max(a, b)
        lmean = mean_logarithmic(a, b)
        amean = mean_arithmetic(a, b)
        assert lo < lmean < amean < hi or math.isclose(lmean, amean, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            # log(a) - log(b) is 0 or one ulp of log here; the mean is a itself
            (0.010000000000000002, 0.01, 0.01),
            (1.0, 1.0000000000000002, 1.0),
            # (b - a) / a overflows to inf; L = 1e200 / (400 ln 10)
            (1e-200, 1e200, 1e200 / (400 * math.log(10))),
            # a subnormal, where 1 / a overflows: L = 1 / -ln 5e-324
            (5e-324, 1.0, -1.0 / math.log(5e-324)),
        ],
    )
    def test_logarithmic_at_extremes(self, a, b, expected):
        assert mean_logarithmic(a, b) == pytest.approx(expected, rel=1e-15)
        assert mean_logarithmic(b, a) == mean_logarithmic(a, b)
        assert min(a, b) <= mean_logarithmic(a, b) <= max(a, b)

    @given(pair=pos_pair)
    @settings(max_examples=60)
    def test_symmetry(self, pair):
        a, b = pair
        assert mean_arithmetic(a, b) == mean_arithmetic(b, a)
        if a != b:
            assert mean_logarithmic(a, b) == pytest.approx(
                mean_logarithmic(b, a), rel=1e-14
            )
            assert mean_generalized_log(a, b, 3) == pytest.approx(
                mean_generalized_log(b, a, 3), rel=1e-14
            )


class TestCheckProposition:
    def test_prop2_equality_at_q1(self):
        # A(1, 8) = 9/2, L3^3 = 15/4, bound 6 * (1/24) * 3
        rec = check_proposition(2, 1, 2, 3, 1.0, "stated")
        assert rec.status == "equality"
        assert rec.lhs == rec.rhs == pytest.approx(3 / 4)
        assert rec.exact

    def test_prop1_equality_at_q1(self):
        rec = check_proposition(1, 1, 2, 3, 1.0, "stated")
        assert rec.status == "equality"
        assert rec.lhs == rec.rhs == pytest.approx(3 / 8)

    def test_prop1_violated_at_q2(self):
        rec = check_proposition(1, 1, 2, 3, 2.0, "stated")
        assert rec.status == "violated"
        assert rec.lhs == pytest.approx(3 / 8)
        assert rec.rhs == pytest.approx(math.sqrt(5) / 8, abs=1e-15)
        assert rec.margin == pytest.approx(math.sqrt(5) / 8 - 3 / 8, abs=1e-15)

    def test_prop3_simpson_exact_for_cubics(self):
        rec = check_proposition(3, 1, 2, 3, 1.0, "stated")
        assert rec.lhs == 0.0
        assert rec.status == "holds"

    @pytest.mark.parametrize("idx", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_derived_variant_never_violated_at_q1(self, idx, n):
        rng = random.Random(idx * 10 + n)
        for _ in range(8):
            a = rng.uniform(0.05, 9.0)
            b = rng.uniform(a + 0.05, 10.0)
            rec = check_proposition(idx, a, b, n, 1.0, "derived")
            assert rec.status != "violated", (idx, n, a, b)

    def test_negative_order(self):
        rec = check_proposition(2, 1, 2, -2, 1.0, "derived")
        assert rec.status == "holds"
        # lhs = |A(1, 1/4) - 1/(ab)| = |5/8 - 1/2| = 1/8
        assert rec.lhs == pytest.approx(1 / 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_proposition(4, 1, 2, 3)
        with pytest.raises(ValueError):
            check_proposition(1, 2, 1, 3)
        with pytest.raises(ValueError):
            check_proposition(1, -1, 2, 3)
        with pytest.raises(ValueError):
            check_proposition(1, 1, 2, 3, 0.5)
        with pytest.raises(ValueError):
            check_proposition(1, 1, 2, 3, 1.0, "guessed")

    def test_record_fields(self):
        rec = check_proposition(1, Fraction(1, 2), Fraction(3, 2), 3, 1.5, "stated")
        assert rec.claim == "prop1-stated"
        assert rec.function == "poly3"
        assert rec.a == 0.5 and rec.b == 1.5
        assert rec.q == 1.5
        assert rec.exact
