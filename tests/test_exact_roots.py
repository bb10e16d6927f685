"""Exact q-th roots: the integer n-th root, the enclosures of a power-sum
root, their correct rounding, and the campaign records they decide."""

import contextlib
import random
import signal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhbounds import bounds, functionals, harness, oracle
from hhbounds.corpus import Interval, get_function
from hhbounds.harness import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_Q_GRID,
    CampaignConfig,
    get_claim,
    run_campaign,
)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a
    loop that does not end fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


ORDERS = st.sampled_from([2, 3, 4, 5, 10])


class TestIntegerRoot:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.integers(0, 5000), seed=st.integers(0, 2**32), n=ORDERS)
    def test_is_the_floor_root(self, bits, seed, n):
        x = random.Random(seed).getrandbits(bits)
        with time_limit(5):
            y = bounds._iroot(x, n)
        assert y**n <= x < (y + 1) ** n

    @settings(max_examples=300, deadline=None)
    @given(y=st.integers(2, 2**500), n=ORDERS, step=st.sampled_from([-1, 0, 1]))
    @example(y=2**499 + 1, n=10, step=-1)
    @example(y=3**300, n=5, step=0)
    def test_at_and_next_to_a_power(self, y, n, step):
        # a start from below the root would stop or loop here; y >= 2 puts
        # y^n + 1 below (y + 1)^n
        x = y**n + step
        with time_limit(5):
            got = bounds._iroot(x, n)
        assert got == (y - 1 if step < 0 else y)

    def test_every_small_value(self):
        for n in (2, 3, 4, 5, 10):
            for x in range(5000):
                y = bounds._iroot(x, n)
                assert y**n <= x < (y + 1) ** n


def below(r: Fraction, a: Fraction, b: Fraction, q: Fraction) -> bool:
    """r <= (a^q + b^q)^(1/q), decided in rationals: for q = u/2 with
    x = r^u, v = a^u and w = b^u, sqrt(x) <= sqrt(v) + sqrt(w) holds if
    and only if x - v - w <= 0 or (x - v - w)^2 <= 4vw."""
    u, h = q.as_integer_ratio()
    if h == 1:
        return r**u <= a**u + b**u
    d = r**u - a**u - b**u
    return d <= 0 or d * d <= 4 * a**u * b**u


def above(r: Fraction, a: Fraction, b: Fraction, q: Fraction) -> bool:
    """r >= (a^q + b^q)^(1/q), decided as in :func:`below`."""
    u, h = q.as_integer_ratio()
    if h == 1:
        return r**u >= a**u + b**u
    d = r**u - a**u - b**u
    return d >= 0 and d * d >= 4 * a**u * b**u


ENDS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(0, 10**6, max_denominator=10**9),
    st.floats(1e-200, 1e200).map(Fraction),
)
QS = st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
                      Fraction(4), Fraction(10)])


class TestEnclosure:
    @settings(max_examples=300, deadline=None)
    @given(a=ENDS, b=ENDS, q=QS, bits=st.integers(1, 400))
    @example(a=Fraction(3), b=Fraction(4), q=Fraction(2), bits=400)
    def test_encloses_the_root(self, a, b, q, bits):
        root = bounds._power_sum(a, b, q).root
        lo, hi, d = root.enclosure(bits)
        assert below(Fraction(lo, d), a, b, q)
        assert above(Fraction(hi, d), a, b, q)
        assert lo == hi or (hi - lo <= 6 and lo >= 2**bits)

    @settings(max_examples=200, deadline=None)
    @given(a=ENDS, b=ENDS, q=QS, c=st.fractions(Fraction(1, 10**6), 10**6),
           lhs=st.fractions(0, 10**6))
    def test_rounds_like_100_digits(self, a, b, q, c, lhs):
        bound = bounds._power_sum(a, b, q) * c
        with mpmath.workdps(100):
            qm = mpmath.mpf(q.numerator) / q.denominator
            value = oracle.to_mpf(c) * (
                oracle.to_mpf(a) ** qm + oracle.to_mpf(b) ** qm) ** (1 / qm)
            expected = float(value), float(value - oracle.to_mpf(lhs))
        assert bound.rounded(*lhs.as_integer_ratio()) == expected
        assert float(bound) == expected[0]
        with mpmath.workdps(30):
            assert mpmath.mpf(bound) == +value

    def test_a_rational_root_ends_the_rounding_loop(self):
        # the root is 6 where f''(a) = 0, 0 where f'' = 0, and 5 or 5/7 at
        # q = 2 for 3 and 4 or 3/7 and 4/7 (found at the rational test);
        # the margins are 0, not -0.0 from ends that underflow
        cases = [
            (Fraction(0), Fraction(6), Fraction(3, 2), Fraction(6)),
            (Fraction(0), Fraction(6), Fraction(10), Fraction(6)),
            (Fraction(0), Fraction(0), Fraction(5, 2), Fraction(0)),
            (Fraction(3), Fraction(4), Fraction(2), Fraction(5)),
            (Fraction(3, 7), Fraction(4, 7), Fraction(2), Fraction(5, 7)),
        ]
        with time_limit(5):
            for a, b, q, root in cases:
                c = Fraction(1, 7)
                bound = bounds._power_sum(a, b, q) * c
                value, margin = bound.rounded(*(c * root).as_integer_ratio())
                assert (value, repr(margin)) == (float(c * root), "0.0")


def block(cid, fid, lo, hi):
    return harness._evaluate_block(
        get_claim(cid), get_function(fid), Interval(lo, hi), DEFAULT_LAMBDA_GRID,
        DEFAULT_Q_GRID, harness._Context(),
    )


def test_exact_zero_margins_end_the_rounding_loop():
    # x^3 on [0, 1]: f''(0) = 0, so the root is f''(1) = 6 at every q, and
    # the stated bound 3 moment(lam) equals |F(lam)| at lam = 0 and lam >=
    # 1/2; const1 has f'' = 0, so both sides are 0 at every lam and q
    with time_limit(20):
        cubic = block("thm6-stated", "poly3", 0.0, 1.0)
        const = [r for cid in ("thm6-stated", "thm6-derived", "cor3-stated", "cor8-derived")
                 for r in block(cid, "const1", 0.5, 2.0)]
    tight = [r for r in cubic if r.lam == 0.0 or r.lam >= 0.5]
    assert len(tight) == 12 * len(DEFAULT_Q_GRID)
    for r in tight + const:
        assert (r.margin, r.status, r.exact) == (0.0, "equality", True), r
    assert {r.rhs for r in const} == {0.0}


def expected_rhs(claim, fn, a: Fraction, b: Fraction, lam, q):
    """The rhs of an exact record at 100 digits, from the formulas of the
    paper, and its exact lhs."""
    lam_x = bounds.RULE_LAMBDA_EXACT[claim.rule] if claim.rule else Fraction(lam)
    w = b - a
    lhs = abs(functionals.functional_lambda_exact(fn, Interval(a, b), lam_x))
    mp = oracle.to_mpf
    qm = mpmath.mpf(q)
    if claim.family == "corm":
        m = Fraction(harness._envelope(fn, Interval(float(a), float(b))).sup_abs_d2)
        denom = {"midpoint": 48, "trapezoid": 24, "simpson": 162}[claim.rule]
        if claim.variant == "derived":
            denom //= 2
        return mp(m * w**2 / denom) * mpmath.mpf(2) ** (1 / qm), lhs
    if 2 * lam_x <= 1:
        moment = (8 * lam_x**3 - 3 * lam_x + 1) / 24
    else:
        moment = (3 * lam_x - 1) / 24
    if claim.variant == "stated":
        moment /= 2
    d2 = [k * (k - 1) * c for k, c in enumerate(fn.poly_coeffs)][2:]
    m_a, m_b = (abs(sum(c * x**k for k, c in enumerate(d2))) for x in (a, b))
    return mp(w**2 * moment) * (mp(m_a) ** qm + mp(m_b) ** qm) ** (1 / qm), lhs


def test_bench_scale_exact_records_are_correctly_rounded():
    # every exact record with q != 1 of the pinned bench-scale campaign
    # carries the floats nearest to its 100-digit rhs and margin
    cfg = CampaignConfig(claims=("all",), functions=("all",), trials=20, seed=1785390952)
    checked = 0
    with mpmath.workdps(100):
        for r in run_campaign(cfg).records:
            if not r.exact or r.q in (None, 1.0):
                continue
            claim, fn = get_claim(r.claim), get_function(r.function)
            rhs, lhs = expected_rhs(claim, fn, Fraction(r.a), Fraction(r.b), r.lam, r.q)
            assert (r.lhs, r.rhs, r.margin) == (
                float(lhs), float(rhs), float(rhs - oracle.to_mpf(lhs))), r
            checked += 1
    assert checked > 10000


def test_default_grid_polynomial_campaign_reads_no_mpf(monkeypatch):
    cfg = CampaignConfig(
        claims=("all",), functions=("poly2", "poly3", "poly4", "poly5", "const1"),
        trials=5, seed=1785390952,
    )
    expected = run_campaign(cfg).records
    assert sum(r.exact and r.q not in (None, 1.0) for r in expected) > 100

    def no_mpf(*args):
        raise AssertionError("a polynomial record read an mpf")

    for module in (oracle, bounds):
        monkeypatch.setattr(module, "to_mpf", no_mpf)
    monkeypatch.setattr(bounds.mpmath, "workdps", no_mpf)
    monkeypatch.setattr(bounds._Root, "_mpf_", property(no_mpf))
    assert run_campaign(cfg).records == expected


@pytest.mark.parametrize("q", [Fraction(5, 3), 1.7, 65, 1e9])
def test_other_q_take_the_mpf_root(q):
    # a denominator above 2, or a numerator above 64: the root is the point
    # of its 50-digit value, whatever the working precision
    a, b = Fraction(2, 7), Fraction(13, 3)
    with mpmath.workdps(50):
        qm = oracle.to_mpf(q)
        man, exp = ((oracle.to_mpf(a) ** qm + oracle.to_mpf(b) ** qm) ** (1 / qm)).man_exp
    n, d = (man * Fraction(2) ** exp).as_integer_ratio()
    with mpmath.workdps(15):
        s = bounds._power_sum(a, b, q)
    assert type(s) is bounds._Root and (s.cn, s.cd) == (1, 1)
    assert s.root.enclosure(10**4) == (n, n, d)
    assert float(s) == n / d
