"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np

from hhbounds.bounds import (
    EndpointData,
    bound_bounded_m,
    bound_classical_exact,
    bound_corollary_exact,
    bound_classical,
    bound_theorem5,
    bound_theorem6,
    DerivativeEnvelope,
)
from hhbounds.corpus import Interval, corpus_standard, get_function
from hhbounds.functionals import (
    functional_lambda_exact,
    hh_gap_left_exact,
    hh_gap_right_exact,
    identity_residual,
)
from hhbounds.harness import CampaignConfig, run_campaign
from hhbounds.kernel import (
    weighted_moment_large_lambda_exact,
    weighted_moment_small_lambda,
    weighted_moment_small_lambda_exact,
)
from hhbounds.means import check_proposition
from hhbounds.oracle import to_mpf
from moment_reference import (
    moment_abs_exact,
    verify_moments_numeric,
    weighted_moment_small_lambda_mirror,
    weighted_moment_small_lambda_mirror_exact,
)

LAMBDA_GRID_21 = tuple(i / 20 for i in range(21))
P_CONVEX_CORPUS = ("poly2", "poly3", "poly4", "poly5", "const1", "expx")


def _report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_kernel_identity():
    # residual of the kernel representation <= 1e-10 for every corpus
    # polynomial, 21-point lambda grid, 20 seeded random intervals, < 5 s
    polys = [f for f in corpus_standard() if f.poly_coeffs is not None]
    rng = random.Random(2024)
    intervals = []
    for _ in range(20):
        a = rng.uniform(0.1, 9.0)
        b = rng.uniform(a + 0.1, 10.0)
        intervals.append(Interval(a, b))
    start = time.monotonic()
    worst = 0.0
    for fn in polys:
        for dom in intervals:
            for lam in LAMBDA_GRID_21:
                worst = max(worst, identity_residual(fn, dom, lam))
    elapsed = time.monotonic() - start
    _report(
        1,
        f"kernel identity residual (max {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-10 and elapsed <= 5.0,
    )


def test_criterion_2_endpoint_sum_soundness():
    # zero violations for thm5 over the P-convex corpus, full lambda grid,
    # 1000 random intervals; min margin >= -1e-9
    cfg = CampaignConfig(
        claims=("thm5",),
        functions=P_CONVEX_CORPUS,
        intervals=(),
        trials=1000,
        seed=424242,
        lambda_grid=LAMBDA_GRID_21,
    )
    res = run_campaign(cfg)
    margins = [r.margin for r in res.records if r.margin is not None]
    violated = res.summary["by_status"]["violated"]
    min_margin = min(margins)
    _report(
        2,
        f"thm5 soundness over {len(res.records)} records "
        f"(violated={violated}, min margin {min_margin:.2e})",
        violated == 0 and min_margin >= -1e-9,
    )


def test_criterion_3_derived_power_mean_soundness():
    cfg = CampaignConfig(
        claims=("thm6-derived",),
        functions=("all",),
        trials=20,
        seed=31337,
        lambda_grid=LAMBDA_GRID_21,
        q_grid=(1.0, 1.5, 2.0, 4.0, 10.0),
    )
    res = run_campaign(cfg)
    violated = res.summary["by_status"]["violated"]

    rng = random.Random(99)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.1, 9.0)
        b = rng.uniform(a + 0.05, 10.0)
        dom = Interval(a, b)
        lam = rng.random()
        e = EndpointData(rng.uniform(0, 10), rng.uniform(0, 10))
        t5 = bound_theorem5(dom, lam, e)
        t6 = bound_theorem6(dom, lam, 1.0, e, "derived")
        worst = max(worst, abs(t5 - t6) / max(1.0, abs(t5)))
    _report(
        3,
        f"thm6-derived soundness (violated={violated}) and q=1 reduction "
        f"to thm5 (max rel dev {worst:.2e})",
        violated == 0 and worst <= 1e-15,
    )


def test_criterion_4_equality_reproduction_exact():
    unit = Interval(0.0, 1.0)
    p2 = get_function("poly2")
    lhs = abs(functional_lambda_exact(p2, unit, 0))
    rhs = bound_corollary_exact("midpoint", unit, 1, 2, 2, "stated")
    ok = lhs == rhs == Fraction(1, 12)

    rec1 = check_proposition(1, 1, 2, 3, 1.0, "stated")
    ok &= rec1.status == "equality" and Fraction(rec1.lhs) == Fraction(3, 8)
    rec2 = check_proposition(2, 1, 2, 3, 1.0, "stated")
    ok &= rec2.status == "equality" and Fraction(rec2.lhs) == Fraction(3, 4)
    _report(
        4,
        "exact equalities: x^2 midpoint 1/12; x^3 on [1,2] prop1 3/8, prop2 3/4",
        ok,
    )


def test_criterion_5_counterexample_discovery_cli():
    cmd = [
        sys.executable, "-m", "hhbounds", "verify",
        "--claims", "prop1-stated", "--functions", "poly3", "--q-grid", "1,2",
    ]
    proc = subprocess.run(cmd, capture_output=True)
    doc = json.loads(proc.stdout)
    viol = [r for r in doc["records"] if r["status"] == "violated"]
    ok = proc.returncode == 1 and len(viol) == 1
    if ok:
        r = viol[0]
        with mpmath.workdps(50):
            rhs50 = 6 * mpmath.mpf(1) / 48 * mpmath.sqrt(5)
            margin50 = rhs50 - to_mpf(Fraction(3, 8))
        ok &= (r["a"], r["b"], r["q"]) == (1.0, 2.0, 2.0)
        ok &= r["exact"] is True
        ok &= Fraction(r["lhs"]) == Fraction(3, 8)
        ok &= abs(r["rhs"] - float(rhs50)) <= 1e-15
        ok &= abs(r["margin"] - float(margin50)) <= 1e-15
        ok &= abs(r["rhs"] - 0.27951) <= 1e-5 and abs(r["margin"] + 0.09549) <= 1e-5
    _report(
        5,
        "CLI finds exactly the (n=3, [1,2], q=2) violation of prop1-stated, exit 1",
        ok,
    )


def test_criterion_6_classical_bounds_match_gaps_exactly():
    unit = Interval(0.0, 1.0)
    p2 = get_function("poly2")
    trap_lo, trap_hi = bound_classical_exact("trapezoid", unit, lower_d2=2, upper_d2=2)
    mid_lo, mid_hi = bound_classical_exact("midpoint", unit, lower_d2=2, upper_d2=2)
    ok = trap_lo == trap_hi == hh_gap_right_exact(p2, unit) == Fraction(1, 6)
    ok &= mid_lo == mid_hi == hh_gap_left_exact(p2, unit) == Fraction(1, 12)
    _report(
        6,
        "x^2 on [0,1]: trapezoid enclosure [1/6, 1/6], midpoint [1/12, 1/12], exact",
        ok,
    )


def test_criterion_7_comparator_cases():
    unit = Interval(0.0, 1.0)

    def new_bound(m):
        return bound_bounded_m(
            "trapezoid", unit, 1.0, DerivativeEnvelope(sup_abs_d2=float(m)), "relaxed"
        )

    def classical(k):
        return bound_classical(
            "trapezoid", unit, DerivativeEnvelope(lower_d2=-float(k), upper_d2=float(k))
        )[1]

    # M (b-a)^2 / 12 against K (b-a)^2 / 12: the new bound is the tighter
    # one exactly when M < K
    ok = new_bound(1) < classical(2)
    ok &= new_bound(1) == classical(1)
    ok &= new_bound(2) > classical(1)
    _report(7, "the relaxed and classical bounds reproduce the (M, K) case split", ok)


def test_criterion_8_kernel_moment_algebra():
    worst_numeric = 0.0
    for lam in np.linspace(0.0, 1.0, 101):
        worst_numeric = max(worst_numeric, verify_moments_numeric(float(lam)))

    worst_mirror = 0.0
    for lam in np.linspace(0.0, 0.5, 101):
        worst_mirror = max(
            worst_mirror,
            abs(
                weighted_moment_small_lambda(float(lam))
                - weighted_moment_small_lambda_mirror(float(lam))
            ),
        )

    half = Fraction(1, 2)
    seam_ok = (
        weighted_moment_small_lambda_exact(half)
        == weighted_moment_large_lambda_exact(half)
        == weighted_moment_small_lambda_mirror_exact(half)
        == Fraction(1, 48)
    )
    seam_ok &= moment_abs_exact(half) == (Fraction(1, 48), Fraction(1, 48))
    _report(
        8,
        f"moment algebra: numeric {worst_numeric:.2e}, mirror {worst_mirror:.2e}, "
        "seam = 1/48 exact",
        worst_numeric <= 1e-12 and worst_mirror <= 1e-15 and seam_ok,
    )


def test_criterion_9_byte_identical_reports():
    cmd = [
        sys.executable, "-m", "hhbounds", "verify",
        "--claims", "all", "--functions", "all", "--seed", "7",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.stdout == second.stdout
        and len(first.stdout) > 0
        and first.returncode == second.returncode
    )
    _report(9, "two seeded verify runs emit byte-identical JSON", ok)
