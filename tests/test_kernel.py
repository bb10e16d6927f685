"""Kernel and moment tests: frozen values, symmetry, seam continuity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.kernel import (
    kernel_value,
    kernel_value_exact,
    weighted_moment,
    weighted_moment_exact,
    weighted_moment_large_lambda,
    weighted_moment_large_lambda_exact,
    weighted_moment_small_lambda,
    weighted_moment_small_lambda_exact,
)
from moment_reference import (
    moment_abs,
    moment_abs_exact,
    verify_moments_numeric,
    weighted_moment_small_lambda_mirror,
    weighted_moment_small_lambda_mirror_exact,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
half = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


class TestKernelValue:
    def test_frozen_values(self):
        # 0.5 * 0.25 * 0.25
        assert kernel_value(0.25, 0.0) == pytest.approx(0.03125, abs=1e-15)
        # first branch zero at t = lam
        assert kernel_value(0.5, 0.5) == 0.0
        # 0.5 * 0.25 * (-0.75)
        assert kernel_value(0.75, 1.0) == pytest.approx(-0.09375, abs=1e-15)

    def test_exact_matches_float(self):
        assert kernel_value_exact(Fraction(1, 4), 0) == Fraction(1, 32)
        assert kernel_value_exact(Fraction(3, 4), 1) == Fraction(-3, 32)

    @given(t=unit, lam=unit)
    def test_symmetry(self, t, lam):
        assert kernel_value(1.0 - t, lam) == pytest.approx(
            kernel_value(t, lam), abs=1e-15
        )

    @given(lam=unit)
    def test_branch_agreement_at_half(self, lam):
        first = 0.5 * 0.5 * (0.5 - lam)
        second = 0.5 * (1.0 - 0.5) * (1.0 - lam - 0.5)
        assert first == pytest.approx(second, abs=1e-16)
        assert kernel_value(0.5, lam) == pytest.approx(first, abs=1e-16)

    def test_array_input(self):
        t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        vals = kernel_value(t, 0.0)
        assert vals.shape == t.shape
        assert vals[1] == pytest.approx(0.03125)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kernel_value(1.5, 0.0)
        with pytest.raises(ValueError):
            kernel_value(0.5, 2.0)


class TestMoments:
    def test_frozen_values(self):
        # integral of t^2 over [0, 1/2]
        m0 = moment_abs(0.0)
        assert m0.first_half == pytest.approx(1 / 24, abs=1e-16)
        assert m0.second_half == pytest.approx(1 / 24, abs=1e-16)
        # (3 - 1)/24
        m1 = moment_abs(1.0)
        assert m1.first_half == pytest.approx(1 / 12, abs=1e-16)
        # both branches give 1/48 at the seam
        mh = moment_abs(0.5)
        assert mh.first_half == pytest.approx(1 / 48, abs=1e-16)

    def test_weighted_small_frozen(self):
        assert weighted_moment_small_lambda(0.0) == pytest.approx(1 / 24, abs=1e-16)
        # 1/192 - 1/32 + 1/24 = 1/64 in exact rationals
        assert weighted_moment_small_lambda_exact(Fraction(1, 4)) == Fraction(1, 64)
        assert weighted_moment_small_lambda(0.5) == pytest.approx(1 / 48, abs=1e-16)

    def test_weighted_large_frozen(self):
        # 1/8 - 1/24 = 1/12
        assert weighted_moment_large_lambda(1.0) == pytest.approx(1 / 12, abs=1e-16)
        # seam matches the small branch
        assert weighted_moment_large_lambda(0.5) == pytest.approx(1 / 48, abs=1e-16)
        # lam/8 - 1/24 at lam = 2/3 recomputed in exact rationals: 1/24
        assert weighted_moment_large_lambda_exact(Fraction(2, 3)) == Fraction(1, 24)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            weighted_moment_small_lambda(0.75)
        with pytest.raises(ValueError):
            weighted_moment_large_lambda(0.25)

    @given(lam=unit)
    def test_halves_equal_for_all_lambda(self, lam):
        m = moment_abs(lam)
        assert m.first_half == m.second_half

    @given(lam=half)
    def test_mirror_form_equivalence_float(self, lam):
        a = weighted_moment_small_lambda(lam)
        b = weighted_moment_small_lambda_mirror(lam)
        assert abs(a - b) <= 1e-15

    def test_mirror_form_equivalence_grid(self):
        for lam in np.linspace(0.0, 0.5, 101):
            a = weighted_moment_small_lambda(float(lam))
            b = weighted_moment_small_lambda_mirror(float(lam))
            assert abs(a - b) <= 1e-15

    def test_mirror_form_equivalence_exact(self):
        for num in range(0, 51):
            lam = Fraction(num, 100)
            assert weighted_moment_small_lambda_exact(
                lam
            ) == weighted_moment_small_lambda_mirror_exact(lam)

    def test_seam_values_exactly_one_48th(self):
        half_f = Fraction(1, 2)
        assert weighted_moment_small_lambda_exact(half_f) == Fraction(1, 48)
        assert weighted_moment_large_lambda_exact(half_f) == Fraction(1, 48)
        assert weighted_moment_small_lambda_mirror_exact(half_f) == Fraction(1, 48)
        assert moment_abs_exact(half_f) == (Fraction(1, 48), Fraction(1, 48))
        assert weighted_moment_exact(half_f) == Fraction(1, 48)

    @given(lam=unit)
    @settings(max_examples=50)
    def test_dispatcher_matches_branches(self, lam):
        m = weighted_moment(lam)
        if lam <= 0.5:
            assert m == weighted_moment_small_lambda(lam)
        else:
            assert m == weighted_moment_large_lambda(lam)


class TestNumericCrossCheck:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.77, 1.0])
    def test_verify_moments_numeric(self, lam):
        assert verify_moments_numeric(lam) <= 1e-12

    def test_lambda_grid(self):
        # denser sweep lives in the acceptance suite; spot-check here
        for lam in np.linspace(0.0, 1.0, 21):
            assert verify_moments_numeric(float(lam)) <= 1e-12
