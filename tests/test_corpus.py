"""Corpus tests: derivative consistency, exact integrals, P-convexity scans."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.corpus import (
    GridSpec,
    Interval,
    PConvexityReport,
    PViolation,
    _monomial,
    check_p_convex,
    corpus_standard,
    function_ids,
    get_function,
)
from hhbounds.oracle import _sample, integrate, integrate_exact_poly

CORPUS = corpus_standard()
IDS = [f.id for f in CORPUS]


def reference_grid_scan(g, domain, grid=GridSpec(), tol_abs=1e-12):
    """The former P-convexity check: g at every (x, y, lam) triple of the
    nx * ny * nlam grid, mixes in one 3-D broadcast, first violating triple
    in lexicographic order as witness.  Every mix is a point of the
    lattice :func:`check_p_convex` samples, so whatever this scan fails,
    the lattice check must fail too."""
    xs = np.linspace(domain.lo, domain.hi, grid.nx)
    ys = np.linspace(domain.lo, domain.hi, grid.ny)
    lams = np.linspace(0.0, 1.0, grid.nlam)
    n_samples = grid.nx * grid.ny * grid.nlam

    gx = _sample(g, xs)
    gy = _sample(g, ys)
    for arr, pts in ((gx, xs), (gy, ys)):
        if not np.all(np.isfinite(arr)):
            bad = float(pts[~np.isfinite(arr)][0])
            return PConvexityReport("undefined", n_samples, undefined_at=bad)

    mix = lams[None, None, :] * xs[:, None, None] + (1.0 - lams[None, None, :]) * ys[
        None, :, None
    ]
    gmix = _sample(g, mix)
    if not np.all(np.isfinite(gmix)):
        bad = float(mix[~np.isfinite(gmix)][0])
        return PConvexityReport("undefined", n_samples, undefined_at=bad)

    rhs = gx[:, None, None] + gy[None, :, None]
    viol = gmix > rhs + tol_abs

    if np.any(gx < -tol_abs) or np.any(gy < -tol_abs):
        pts = xs if np.any(gx < -tol_abs) else ys
        vals = gx if np.any(gx < -tol_abs) else gy
        i = int(np.argmax(vals < -tol_abs))
        w = PViolation(
            x=float(pts[i]), y=float(pts[i]), lam=0.5,
            lhs=float(vals[i]), rhs=float(2 * vals[i]),
        )
        return PConvexityReport("failed", n_samples, witness=w)

    if np.any(viol):
        i, j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
        w = PViolation(
            x=float(xs[i]),
            y=float(ys[j]),
            lam=float(lams[k]),
            lhs=float(gmix[i, j, k]),
            rhs=float(gx[i] + gy[j]),
        )
        return PConvexityReport("failed", n_samples, witness=w)

    return PConvexityReport("passed", n_samples)


def _abs_d2_power(fn, q):
    return lambda x: np.abs(fn.d2(x)) ** q


def _gaussian_sum(bumps):
    return lambda x: sum(h * np.exp(-((x - c) ** 2) / w) for c, w, h in bumps)


_candidates = st.one_of(
    st.builds(
        lambda fn, q: (f"|{fn.id}''|^{q}", _abs_d2_power(fn, q), fn.domain),
        st.sampled_from(CORPUS),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    ),
    st.just(("bump", get_function("bump").f, Interval(0.0, 1.0))),
    st.builds(
        lambda bumps: (f"gaussians {bumps}", _gaussian_sum(bumps), Interval(0.0, 1.0)),
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(1e-4, 0.2), st.floats(0.01, 2.0)),
            min_size=1,
            max_size=4,
        ),
    ),
)
_grids = st.one_of(
    st.just(GridSpec()),
    st.builds(GridSpec, st.integers(3, 25), st.integers(3, 25), st.integers(3, 12)),
)


class TestInterval:
    def test_valid(self):
        iv = Interval(0.0, 2.0)
        assert iv.width == 2.0 and iv.midpoint == 1.0

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf)])
    def test_invalid(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    def test_contains(self):
        assert Interval(0.0, 10.0).contains(Interval(1.0, 2.0))
        assert not Interval(0.0, 1.0).contains(Interval(0.5, 2.0))


class TestCorpusContents:
    def test_required_members(self):
        for required in ("poly2", "poly3", "poly4", "poly5", "expx", "const1", "bump"):
            assert required in IDS

    def test_poly3_second_derivative(self):
        p3 = get_function("poly3")
        assert abs(p3.d2(1.0)) == pytest.approx(6.0)
        assert abs(p3.d2(2.0)) == pytest.approx(12.0)

    def test_constant_d2_vanishes(self):
        c = get_function("const1")
        xs = np.linspace(-5, 5, 11)
        assert np.all(np.asarray(c.d2(xs)) == 0.0)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_function("nope")

    def test_registry_order_stable(self):
        assert function_ids() == tuple(IDS)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("fn", CORPUS, ids=IDS)
    def test_d2_matches_finite_difference_of_d1(self, fn):
        # |d2 - central difference of d1| / (1 + |d2|) <= 1e-6,
        # h = 1e-5 * domain width, over a 101-point grid
        lo, hi = fn.domain.lo, fn.domain.hi
        h = 1e-5 * (hi - lo)
        xs = np.linspace(lo + h, hi - h, 101)
        d2 = np.asarray([float(fn.d2(x)) for x in xs])
        fd = np.asarray(
            [(float(fn.d1(x + h)) - float(fn.d1(x - h))) / (2 * h) for x in xs]
        )
        rel = np.abs(d2 - fd) / (1.0 + np.abs(d2))
        assert float(np.max(rel)) <= 1e-6

    @pytest.mark.parametrize("fn", CORPUS, ids=IDS)
    def test_d1_matches_finite_difference_of_f(self, fn):
        lo, hi = fn.domain.lo, fn.domain.hi
        h = 1e-6 * (hi - lo)
        xs = np.linspace(lo + h, hi - h, 33)
        d1 = np.asarray([float(fn.d1(x)) for x in xs])
        fd = np.asarray([(float(fn.f(x + h)) - float(fn.f(x - h))) / (2 * h) for x in xs])
        rel = np.abs(d1 - fd) / (1.0 + np.abs(d1))
        assert float(np.max(rel)) <= 1e-4

    @pytest.mark.parametrize("fn", CORPUS, ids=IDS)
    def test_exact_integral_agrees_with_oracle(self, fn):
        exact = fn.exact_integral
        if exact is None:  # a polynomial integrates exactly from its coefficients
            def exact(a, b):
                return float(integrate_exact_poly(fn.poly_coeffs, (Fraction(a), Fraction(b))))
        rng = np.random.default_rng(11)
        for _ in range(4):
            a = rng.uniform(fn.domain.lo, fn.domain.hi - 0.1)
            b = rng.uniform(a + 0.1, fn.domain.hi)
            num = integrate(fn.f, (a, b)).value
            assert abs(num - exact(a, b)) <= 1e-12 * (1 + abs(num))


def _closures_x_n(n):
    """The hand-written f, f', f'' and f'''' of x^n (n >= 2) that the corpus
    carried before it derived them from the coefficients."""

    def f(x, _n=n):
        return x**_n

    def d1(x, _n=n):
        return _n * x ** (_n - 1)

    def d2(x, _n=n):
        if _n == 2:
            return 2.0 + 0.0 * x
        return _n * (_n - 1) * x ** (_n - 2)

    def d4(x, _n=n):
        if _n < 4:
            return 0.0 * x
        if _n == 4:
            return 24.0 + 0.0 * x
        k = _n * (_n - 1) * (_n - 2) * (_n - 3)
        return k * x ** (_n - 4)

    return f, d1, d2, d4


# the hand-written closures of const1 (x^0)
_CLOSURES_CONST = (
    lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x,
)

# x^1 had no closure (x ** (n - 2) above divides by zero at 0 for n = 1); its
# reference is the rule n!/(n - k)! x^(n - k) written out
_CLOSURES_X = (
    lambda x: x**1, lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x,
)

_BIT_FLOATS = (
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.7, -2.25, 10.0, -100.0, 1e-300, -1e-300,
    5e-324, 1e20, -1e20, 1e30, -1e30, 1.7976931348623157e308, math.inf, -math.inf,
    math.nan,
)


def _bits(g, x):
    """g(x) as bytes, with its type; an overflow is an outcome too."""
    try:
        with np.errstate(all="ignore"):
            y = g(x)
    except OverflowError:
        return "OverflowError"
    if isinstance(y, np.ndarray):
        return y.dtype.str, y.shape, y.tobytes()
    return type(y), struct.pack("<d", y)


class TestDerivedPolynomials:
    @pytest.mark.parametrize("n", range(16))
    def test_derived_callables_equal_the_closures_bit_for_bit(self, n):
        fn = get_function("const1") if n == 0 else _monomial(n)
        ref = {0: _CLOSURES_CONST, 1: _CLOSURES_X}.get(n) or _closures_x_n(n)
        arrays = (np.array(_BIT_FLOATS), np.linspace(-10.0, 10.0, 41), np.array(-0.0))
        for got, want in zip((fn.f, fn.d1, fn.d2, fn.d4), ref):
            for x in (*_BIT_FLOATS, *arrays):
                assert _bits(got, x) == _bits(want, x), (n, x)

    def test_only_non_polynomials_carry_an_exact_integral(self):
        for fn in CORPUS:
            assert (fn.exact_integral is None) == (fn.poly_coeffs is not None), fn.id
        assert [fn.id for fn in CORPUS if fn.poly_coeffs is not None] == [
            "poly2", "poly3", "poly4", "poly5", "const1"
        ]


class TestCheckPConvex:
    def test_x_squared_passes(self):
        rep = check_p_convex(lambda x: x**2, Interval(0.0, 1.0))
        assert rep.passed and rep.witness is None
        assert rep.samples_checked == 801

    def test_constant_passes(self):
        rep = check_p_convex(lambda x: 1.0 + 0 * x, Interval(0.0, 1.0))
        assert rep.passed

    def test_bump_fails_with_center_over_flanks_witness(self):
        bump = get_function("bump")
        rep = check_p_convex(bump.f, Interval(0.0, 1.0))
        assert rep.status == "failed"
        w = rep.witness
        assert w is not None and w.lhs > w.rhs
        # the violating mix sits near the peak at 0.5 and dominates the flanks
        mix = w.lam * w.x + (1 - w.lam) * w.y
        assert abs(mix - 0.5) < 0.1
        assert w.lhs > 0.9

    def test_bump_witness_sits_at_its_peak(self):
        bump = get_function("bump")
        w = check_p_convex(bump.f, Interval(0.0, 1.0)).witness
        mix = w.lam * w.x + (1 - w.lam) * w.y
        assert mix == pytest.approx(0.5, abs=1e-12)
        assert w.lhs == pytest.approx(1.0) and w.rhs < 1e-100

    def test_named_triple_violates_bump(self):
        # direct evaluation: center value ~1 exceeds the sum of flank values
        bump = get_function("bump")
        lhs = float(bump.f(0.5 * 0.4 + 0.5 * 0.6))
        rhs = float(bump.f(0.4)) + float(bump.f(0.6))
        assert lhs > rhs

    def test_negative_function_fails_nonnegativity(self):
        rep = check_p_convex(lambda x: x - 0.5, Interval(0.0, 1.0))
        assert rep.status == "failed"
        assert rep.witness.lhs < 0  # a negative sample is its own witness

    def test_nan_gives_undefined_not_violation(self):
        rep = check_p_convex(lambda x: float("nan"), Interval(0.0, 1.0))
        assert rep.status == "undefined"
        assert rep.witness is None

    def test_raising_candidate_gives_undefined(self):
        def g(x):
            raise ZeroDivisionError

        rep = check_p_convex(g, Interval(0.0, 1.0))
        assert rep.status == "undefined"

    def test_deterministic(self):
        bump = get_function("bump")
        r1 = check_p_convex(bump.f, Interval(0.0, 1.0))
        r2 = check_p_convex(bump.f, Interval(0.0, 1.0))
        assert r1 == r2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nx=2)

    def test_grid_lattice_cap(self):
        # constructing a GridSpec allocates nothing; the cap is on
        # n = (nlam - 1) * lcm(nx - 1, ny - 1) + 1
        with pytest.raises(ValueError, match="998001001"):
            GridSpec(1000, 1001, 1000)
        with pytest.raises(ValueError, match="10000001"):
            GridSpec(3, 3, 5_000_001)
        assert GridSpec(3, 3, 5_000_000).nlam == 5_000_000  # n = 9,999,999

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_abs_d2_of_monomials_is_p_convex_on_positive_domain(self, n):
        fn = get_function(f"poly{n}")
        rep = check_p_convex(lambda x: np.abs(fn.d2(x)), Interval(0.1, 10.0))
        assert rep.passed

    def test_small_grid_still_catches_bump(self):
        bump = get_function("bump")
        rep = check_p_convex(bump.f, Interval(0.0, 1.0), GridSpec(11, 11, 5))
        assert rep.status == "failed"


class TestLatticeCoversGridScan:
    @given(
        candidate=_candidates,
        grid=_grids,
        lo=st.floats(0.0, 0.9),
        width=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_grid_scan_failure_implies_lattice_failure(self, candidate, grid, lo, width):
        _, g, dom = candidate
        a = dom.lo + lo * dom.width
        b = min(dom.hi, a + width * dom.width)
        domain = Interval(a, b)
        old = reference_grid_scan(g, domain, grid)
        new = check_p_convex(g, domain, grid)

        n = (grid.nlam - 1) * math.lcm(grid.nx - 1, grid.ny - 1) + 1
        assert new.samples_checked == n <= old.samples_checked
        if old.status == "failed":
            assert new.status == "failed"
        if new.status == "failed":
            w = new.witness
            mix = w.lam * w.x + (1 - w.lam) * w.y
            lhs = float(g(np.array([mix]))[0])
            rhs = float(g(np.array([w.x]))[0] + g(np.array([w.y]))[0])
            assert lhs > rhs + 1e-12
