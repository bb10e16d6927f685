"""CLI tests: flag parsing, output formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from hhbounds.cli import USAGE_ERROR, main


def run_cli(*argv):
    """In-process invocation capturing stdout; returns (exit_code, stdout)."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse error paths
            code = exc.code
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def _mp(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _moment(lam):
    lam = Fraction(lam)
    if 2 * lam <= 1:
        return lam**3 / 3 - lam / 8 + Fraction(1, 24)
    return lam / 8 - Fraction(1, 24)


def _power_sum(m_a, m_b, q):
    q = _mp(q)
    return (_mp(m_a) ** q + _mp(m_b) ** q) ** (1 / q)


# Every flag path of `bound` on [1/3, 7/5] (width 16/15), with the values
# its closed form gives at 50 digits; M = 17/9 is a uniform bound on |f''|.
_W2 = Fraction(16, 15) ** 2
_M = Fraction(17, 9)
_ENDS = ("--ma", "2/7", "--mb", "13/3")
BOUND_PATHS = [
    (("--rule", "simpson", "--q", "1", *_ENDS),
     lambda: [_mp(_W2 * _moment(Fraction(1, 3)) * Fraction(97, 21) / 2)]),
    (("--rule", "lambda=0.77", "--q", "3/2", "--variant", "derived", *_ENDS),
     lambda: [_mp(_W2 * _moment("0.77")) * _power_sum("2/7", "13/3", "3/2")]),
    (("--rule", "midpoint", "--q", "10", *_ENDS),
     lambda: [_mp(_W2 * _moment(0) / 2) * _power_sum("2/7", "13/3", 10)]),
    (("--rule", "trapezoid", "--q", "5/3", *_ENDS),
     lambda: [_mp(_W2 * _moment(1) / 2) * _power_sum("2/7", "13/3", "5/3")]),
    (("--rule", "simpson", "--q", "3/2", "--big-m", "17/9", "--form", "with_q"),
     lambda: [_mp(_M * _W2 / 162) * _power_sum(1, 1, "3/2")]),
    (("--rule", "midpoint", "--q", "5/3", "--big-m", "17/9", "--form", "with_q"),
     lambda: [_mp(_M * _W2 / 48) * _power_sum(1, 1, "5/3")]),
    (("--rule", "trapezoid", "--q", "2", "--big-m", "17/9", "--variant", "derived"),
     lambda: [_mp(_M * _W2 / 12) * _power_sum(1, 1, 2)]),
    (("--rule", "midpoint", "--q", "3/2", "--big-m", "17/9", "--form", "relaxed"),
     lambda: [_mp(_M * _W2 / 24)]),
    (("--rule", "trapezoid", "--k-lo=-2/3", "--k-hi", "11/7"),
     lambda: [_mp(Fraction(k) / 3 * _W2 / 4) for k in ("-2/3", "11/7")]),
    (("--rule", "midpoint", "--k-lo=-2/3", "--k-hi", "11/7"),
     lambda: [_mp(Fraction(k) * _W2 / 24) for k in ("-2/3", "11/7")]),
    (("--rule", "simpson", "--d4-sup", "19/11", "--p", "2"),
     lambda: [_mp(Fraction(19, 11) * _W2 / 2880)]),
    (("--rule", "simpson", "--d4-sup", "19/11"),
     lambda: [_mp(Fraction(19, 11) * _W2**2 / 2880)]),
]


class TestBoundCommand:
    def test_simpson_stated_prints_17_digits(self):
        code, out = run_cli(
            "bound", "--rule", "simpson", "--a", "0", "--b", "1",
            "--q", "1", "--ma", "1", "--mb", "1", "--variant", "stated",
        )
        assert code == 0
        claim, value = out.split()
        assert claim == "cor3-stated"
        assert value == f"{2 / 162:.17g}"

    def test_midpoint_zero_endpoint_data(self):
        code, out = run_cli(
            "bound", "--rule", "midpoint", "--a", "0", "--b", "1",
            "--ma", "0", "--mb", "0",
        )
        assert code == 0
        assert float(out.split()[1]) == 0.0

    def test_trapezoid_stated(self):
        code, out = run_cli(
            "bound", "--rule", "trapezoid", "--a", "0", "--b", "1",
            "--q", "1", "--ma", "2", "--mb", "2", "--variant", "stated",
        )
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(1 / 6, abs=1e-16)

    def test_lambda_rule_with_fraction_syntax(self):
        code, out = run_cli(
            "bound", "--rule", "lambda=1/3", "--a", "0", "--b", "1",
            "--q", "1", "--ma", "1", "--mb", "1",
        )
        assert code == 0
        assert out.split()[0] == "thm6-stated"
        assert float(out.split()[1]) == pytest.approx(1 / 81, abs=1e-17)

    def test_bounded_m(self):
        code, out = run_cli(
            "bound", "--rule", "midpoint", "--a", "0", "--b", "1",
            "--big-m", "1", "--form", "relaxed",
        )
        assert code == 0
        assert out.split()[0] == "cor4-relaxed"
        assert float(out.split()[1]) == pytest.approx(1 / 24)

    def test_classical_envelope(self):
        code, out = run_cli(
            "bound", "--rule", "trapezoid", "--a", "0", "--b", "1",
            "--k-lo", "2", "--k-hi", "2",
        )
        assert code == 0
        parts = out.split()
        assert parts[0] == "trap-envelope"
        assert float(parts[1]) == float(parts[2]) == pytest.approx(1 / 6)

    def test_classical_simpson_p2(self):
        code, out = run_cli(
            "bound", "--rule", "simpson", "--a", "0", "--b", "2",
            "--d4-sup", "24", "--p", "2",
        )
        assert code == 0
        assert out.split()[0] == "simpson-4th-p2"
        assert float(out.split()[1]) == pytest.approx(24 * 4 / 2880)

    def test_missing_flags_usage_error(self):
        code, _ = run_cli("bound", "--rule", "simpson", "--a", "0", "--b", "1")
        assert code == USAGE_ERROR

    @pytest.mark.parametrize(
        "flags",
        [
            ("--rule", "midpoint", "--ma", "-1", "--mb", "1"),
            ("--rule", "midpoint", "--q", "2", "--ma", "-1", "--mb", "1"),
            ("--rule", "midpoint", "--big-m", "-1", "--form", "relaxed"),
            ("--rule", "trapezoid", "--k-lo", "3", "--k-hi", "1"),
            ("--rule", "simpson", "--d4-sup", "-1"),
        ],
        ids=["negative-ma", "negative-ma-mp", "negative-m", "k-lo-above-k-hi",
             "negative-d4"],
    )
    def test_invalid_derivative_data_usage_error(self, flags, capsys):
        code, out = run_cli("bound", "--a", "0", "--b", "1", *flags)
        assert code == USAGE_ERROR
        assert out == ""
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, expected",
        BOUND_PATHS,
        ids=["cor-q1", "thm6-mp", "cor-mp", "cor-50-digit-root", "big-m-with-q-mp",
             "big-m-with-q-50-digit-root", "big-m-derived-mp",
             "big-m-relaxed", "trap-envelope", "mid-envelope", "simpson-p2",
             "simpson-p4"],
    )
    def test_bound_prints_float_of_50_digit_value(self, flags, expected):
        code, out = run_cli("bound", "--a", "1/3", "--b", "7/5", *flags)
        assert code == 0
        with mpmath.workdps(50):
            values = [f"{float(v):.17g}" for v in expected()]
        assert out.split()[1:] == values


class TestVerifyCommand:
    def test_proof_backed_exit_zero(self):
        code, out = run_cli("verify", "--claims", "thm5", "--functions", "all",
                            "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["by_status"]["violated"] == 0

    def test_prop1_counterexample_exit_one(self):
        code, out = run_cli(
            "verify", "--claims", "prop1-stated", "--functions", "poly3",
            "--q-grid", "1,2",
        )
        assert code == 1
        doc = json.loads(out)
        viol = [r for r in doc["records"] if r["status"] == "violated"]
        assert len(viol) == 1
        r = viol[0]
        assert (r["a"], r["b"], r["q"]) == (1.0, 2.0, 2.0)
        assert r["lhs"] == pytest.approx(3 / 8)
        assert r["rhs"] == pytest.approx(0.2795084971874737, abs=1e-13)
        assert r["margin"] == pytest.approx(-0.09549150281252629, abs=1e-12)
        assert r["exact"] is True

    def test_empty_functions_empty_report(self):
        code, out = run_cli("verify", "--claims", "all", "--functions", "")
        assert code == 0
        doc = json.loads(out)
        assert doc["records"] == [] and doc["summary"]["total"] == 0

    def test_json_round_trip(self):
        _, out = run_cli("verify", "--claims", "hh", "--functions", "poly2")
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_csv_and_json_record_sets_identical(self):
        _, json_out = run_cli(
            "verify", "--claims", "thm5,prop2-stated", "--functions",
            "poly2,poly3", "--format", "json",
        )
        _, csv_out = run_cli(
            "verify", "--claims", "thm5,prop2-stated", "--functions",
            "poly2,poly3", "--format", "csv",
        )
        json_records = json.loads(json_out)["records"]
        parsed = []
        for row in csv.DictReader(io.StringIO(csv_out)):
            rec = {}
            for key, raw in row.items():
                if raw == "":
                    rec[key] = None
                elif key in ("claim", "function", "status"):
                    rec[key] = raw
                elif key == "exact":
                    rec[key] = raw == "true"
                else:
                    rec[key] = float(raw)
            parsed.append(rec)
        assert parsed == json_records

    def test_table_format(self):
        code, out = run_cli(
            "verify", "--claims", "hh", "--functions", "poly2", "--format", "table"
        )
        assert code == 0
        assert "claim" in out and "hh" in out and "records:" in out

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(
            "verify", "--claims", "hh", "--functions", "poly2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["summary"]["total"] > 0

    def test_unknown_ids_usage_error(self):
        code, _ = run_cli("verify", "--claims", "thm99")
        assert code == USAGE_ERROR
        code, _ = run_cli("verify", "--functions", "nope")
        assert code == USAGE_ERROR

    def test_exit_two_on_proof_backed_violation(self, monkeypatch):
        # force a proof-backed violation by breaking the bound on both the
        # float path and the exact confirmation path: both read the power
        # sum m_a + m_b of theorem 5
        from hhbounds import bounds as bmod

        orig = bmod._power_sum
        monkeypatch.setattr(
            bmod, "_power_sum", lambda m_a, m_b, q: orig(m_a, m_b, q) / 1000
        )
        code, out = run_cli(
            "verify", "--claims", "thm5", "--functions", "poly3",
            "--lambda-grid", "0.5",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["summary"]["violated_proof_backed"] == ["thm5"]

    def test_exact_confirmation_rescues_float_glitch(self, monkeypatch):
        # a float-path undershoot alone is rejected by the exact re-check:
        # only the float path reads the lam factor (b-a)^2 moment(lam)
        # through bounds._coefficient
        from hhbounds import bounds as bmod

        orig = bmod._coefficient
        monkeypatch.setattr(bmod, "_coefficient", lambda dom, lam: orig(dom, lam) * 1e-3)
        code, out = run_cli(
            "verify", "--claims", "thm5", "--functions", "poly3",
            "--lambda-grid", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["by_status"]["violated"] == 0
        # the glitch reached the float path and the exact path decided
        assert [r["exact"] for r in doc["records"]] == [True]

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("HHBOUNDS_SEED", "99")
        _, out = run_cli("verify", "--claims", "hh", "--functions", "poly2",
                         "--trials", "2", "--seed", "1")
        assert json.loads(out)["config"]["seed"] == 99

    def test_config_echo_reproduces_run(self):
        _, out = run_cli("verify", "--claims", "thm5", "--functions", "poly2",
                         "--trials", "3", "--seed", "8")
        doc = json.loads(out)
        from hhbounds.harness import CampaignConfig, run_campaign

        cfg = doc["config"]
        rebuilt = CampaignConfig(
            claims=tuple(cfg["claims"]),
            functions=tuple(cfg["functions"]),
            intervals=tuple(tuple(iv) for iv in cfg["intervals"]),
            trials=cfg["trials"],
            interval_range=tuple(cfg["interval_range"]),
            min_width=cfg["min_width"],
            lambda_grid=tuple(cfg["lambda_grid"]),
            q_grid=tuple(cfg["q_grid"]),
            seed=cfg["seed"],
        )
        res = run_campaign(rebuilt)
        assert [r.as_dict() for r in res.records] == doc["records"]


class TestOtherCommands:
    def test_means_prop2(self):
        code, out = run_cli("means", "--prop", "2", "--n", "3", "--a", "1",
                            "--b", "2", "--q", "1")
        assert code == 0
        assert "status=equality" in out
        assert "lhs=0.75" in out and "rhs=0.75" in out

    def test_means_violated_exit_one(self):
        code, out = run_cli("means", "--prop", "1", "--n", "3", "--a", "1",
                            "--b", "2", "--q", "2")
        assert code == 1
        assert "status=violated" in out

    # ``means --prop`` evaluates x^n for any integer n on any 0 < a < b, with
    # exact endpoints; a campaign block has only the corpus members, their
    # domains and float endpoints, so these outputs are pinned here.
    def test_means_prop_negative_n(self):
        code, out = run_cli("means", "--prop", "3", "--n", "-2", "--a", "1",
                            "--b", "2", "--q", "2")
        assert code == 0
        assert out == (
            "prop3-stated n=-2 a=1 b=2 q=2 lhs=0.0046296296296296294 "
            "rhs=0.037109304495095828 margin=0.032479674865466199 status=holds\n"
        )

    def test_means_prop_exact_endpoints(self):
        argv = ("means", "--prop", "3", "--n", "4", "--q", "2")
        code, exact = run_cli(*argv, "--a", "1/3", "--b", "2/3")
        assert code == 0
        assert exact == (
            "prop3-stated n=4 a=0.33333333333333331 b=0.66666666666666663 q=2 "
            "lhs=0.00010288065843621399 rhs=0.0037705584139164704 "
            "margin=0.0036676777554802567 status=holds\n"
        )
        # the nearest floats to 1/3 and 2/3 print alike but give another lhs
        code, rounded = run_cli(*argv, "--a", repr(1 / 3), "--b", repr(2 / 3))
        assert code == 0
        assert "lhs=0.00010288065843621395 " in rounded

    def test_means_prop_outside_corpus_domain(self):
        # [12, 13] is outside [0, 10], the domain of the corpus's poly3
        code, out = run_cli("means", "--prop", "1", "--n", "3", "--a", "12",
                            "--b", "13")
        assert code == 0
        assert out == (
            "prop1-stated n=3 a=12 b=13 q=1 lhs=3.125 rhs=3.125 margin=0 "
            "status=equality\n"
        )

    def test_means_plain(self):
        code, out = run_cli("means", "--a", "1", "--b", "2", "--n", "3")
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert float(lines["A"]) == 1.5
        assert float(lines["L3"]) == pytest.approx((15 / 4) ** (1 / 3))

    def test_identity_small_residual(self):
        code, out = run_cli("identity", "--function", "poly2", "--a", "0",
                            "--b", "1", "--lambda", "1")
        assert code == 0
        assert float(out.split()[1]) <= 1e-12

    def test_identity_exit_two_on_large_residual(self, monkeypatch):
        from hhbounds import cli

        monkeypatch.setattr(
            cli.functionals, "identity_residual", lambda *a, **k: 1e-3
        )
        code, out = run_cli("identity", "--function", "poly2", "--a", "0",
                            "--b", "1", "--lambda", "1")
        assert code == 2

    def test_pconvex_bump_fails_with_witness(self):
        code, out = run_cli("pconvex", "--function", "bump", "--a", "0", "--b", "1")
        assert code == 1
        assert out.startswith("failed witness")
        assert "lam=" in out

    def test_pconvex_poly_passes(self):
        code, out = run_cli("pconvex", "--function", "poly2", "--a", "0", "--b", "1")
        assert code == 0
        assert out.startswith("passed")

    @pytest.mark.parametrize(
        "argv",
        [
            ("pconvex", "--function", "poly2", "--a", "0", "--b", "1", "--grid", "2,2,2"),
            ("pconvex", "--function", "poly2", "--a", "1", "--b", "1"),
            ("pconvex", "--function", "bump", "--a", "0", "--b", "2"),
            ("identity", "--function", "poly2", "--a", "2", "--b", "1", "--lambda", "1"),
            ("identity", "--function", "bump", "--a", "0", "--b", "2", "--lambda", "1"),
            ("verify", "--claims", "thm5", "--functions", "poly2", "--trials", "-1"),
            ("search", "--claim", "thm5", "--functions", "poly2", "--trials", "-1"),
            ("verify", "--claims", "thm5", "--functions", "poly3",
             "--lambda-grid", "1.5"),
            ("verify", "--claims", "thm5", "--functions", "poly3",
             "--lambda-grid", "0,-1/4"),
            ("verify", "--claims", "thm6-stated", "--functions", "poly3",
             "--q-grid", "0.5"),
            ("search", "--claim", "thm6-stated", "--q-grid", "0.5", "--trials", "3"),
            ("verify", "--claims", "thm5,thm5", "--functions", "poly2"),
            ("verify", "--claims", "hh", "--functions", "poly2,poly2"),
            ("verify", "--claims", "thm5", "--functions", "poly2", "--lambda-grid", "0,-0"),
            ("verify", "--claims", "thm6-stated", "--functions", "poly2", "--q-grid", "2,2"),
            ("search", "--claim", "thm6-stated", "--q-grid", "2,2", "--trials", "3"),
            ("means", "--a", "1", "--b", "2", "--n", "0"),
            ("means", "--a", "1", "--b", "2", "--n", "-1"),
            ("means", "--prop", "1", "--n", "3", "--a", "0", "--b", "2"),
            ("means", "--prop", "1", "--n", "3", "--a", "2", "--b", "2"),
            ("means", "--prop", "1", "--n", "3", "--a", "1", "--b", "2", "--q", "1/2"),
            ("means", "--a", "-1", "--b", "2"),
            ("identity", "--function", "poly2", "--a", "0", "--b", "1", "--lambda", "2"),
            ("bound", "--rule", "midpoint", "--a", "0", "--b", "1e400", "--ma", "1",
             "--mb", "1"),
            ("bound", "--rule", "midpoint", "--a", "0", "--b", "1e300", "--ma",
             "1e300", "--mb", "1"),
            ("bound", "--rule", "midpoint", "--a", "0", "--b", "1e300", "--ma",
             "1e300", "--mb", "1", "--q", "2"),
            ("bound", "--rule", "midpoint", "--a", "0", "--b", "1e300", "--ma",
             "1e300", "--mb", "1", "--q", "5/3"),
            ("means", "--a", "1", "--b", "1e400"),
            ("pconvex", "--function", "poly2", "--a", "0", "--b", "1e400"),
        ],
        ids=[
            "pconvex-grid-below-3",
            "pconvex-a-not-below-b",
            "pconvex-outside-domain",
            "identity-a-not-below-b",
            "identity-outside-domain",
            "verify-negative-trials",
            "search-negative-trials",
            "verify-lambda-above-1",
            "verify-lambda-below-0",
            "verify-q-below-1",
            "search-q-below-1",
            "verify-repeated-claim",
            "verify-repeated-function",
            "verify-repeated-lambda-zero",
            "verify-repeated-q",
            "search-repeated-q",
            "means-n-zero",
            "means-n-minus-one",
            "means-prop-a-not-positive",
            "means-prop-a-not-below-b",
            "means-prop-q-below-1",
            "means-negative-a",
            "identity-lambda-above-1",
            "bound-b-overflows-float",
            "bound-value-overflows-float",
            "bound-mp-value-overflows-float",
            "bound-50-digit-root-value-overflows-float",
            "means-b-overflows-float",
            "pconvex-b-overflows-float",
        ],
    )
    def test_invalid_input_is_usage_error(self, argv, capsys):
        code, out = run_cli(*argv)
        assert code == USAGE_ERROR
        assert out == ""
        assert "error:" in capsys.readouterr().err

    def test_pconvex_grid_over_lattice_cap_is_usage_error(self, capsys):
        code, out = run_cli(
            "pconvex", "--function", "poly2", "--a", "0", "--b", "1",
            "--grid", "1000,1001,1000",
        )
        assert code == USAGE_ERROR
        assert out == ""
        assert "exceeds the cap" in capsys.readouterr().err

    def test_search_finds_stated_counterexample(self):
        code, out = run_cli(
            "search", "--claim", "thm6-stated", "--functions", "poly2",
            "--trials", "50", "--seed", "3",
        )
        assert code == 0
        assert out.startswith("counterexample for thm6-stated")

    def test_search_reports_absence_with_trial_count(self):
        code, out = run_cli(
            "search", "--claim", "thm5", "--functions", "poly2",
            "--trials", "20", "--seed", "3",
        )
        assert code == 0
        assert "no counterexample found" in out and "20 trials" in out

    def test_search_zero_trials_runs_none(self):
        code, out = run_cli(
            "search", "--claim", "thm5", "--functions", "poly2", "--trials", "0",
        )
        assert code == 0
        assert out == "no counterexample found for thm5 in 0 trials\n"

    def test_search_takes_no_claims_flag(self, capsys):
        # search tests the one claim of --claim; --claims is verify's
        code, out = run_cli("search", "--claim", "thm5", "--claims", "x", "--trials", "1")
        assert code == USAGE_ERROR
        assert out == ""
        assert "unrecognized arguments: --claims x" in capsys.readouterr().err


class TestSubprocess:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_starts_no_blas_threads(self):
        # campaigns fork, so the CLI asks for a single-threaded OpenBLAS
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        code = (
            "import os, hhbounds.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
        )
        run = [sys.executable, "-c", code]
        out = subprocess.run(run, env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["1", "1"]
        # a value the user set wins
        env["OPENBLAS_NUM_THREADS"] = "2"
        out = subprocess.run(run, env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split()[1] == "2"

    def test_byte_identical_reports(self):
        cmd = [
            sys.executable, "-m", "hhbounds", "verify", "--claims", "all",
            "--functions", "all", "--seed", "7",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 1  # stated-only families are falsified
        assert first.stdout == second.stdout
        assert len(first.stdout) > 1000

    def test_version_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "hhbounds", "--version"], capture_output=True
        )
        assert out.returncode == 0
