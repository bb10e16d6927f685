"""Streamed ``verify`` reports.

``verify`` evaluates its campaign block by block in canonical order and
writes each block as it comes, the summary last.  The bytes must be those
of the whole-document writers, memory must not grow with the records, and
a run that raises must leave no report at ``--out``.
"""

import hashlib
import io
import json
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhbounds import cli, harness
from hhbounds.corpus import function_ids
from hhbounds.harness import (
    CampaignConfig,
    CampaignResult,
    CampaignStream,
    claim_ids,
    resolve_claims,
)

from harness_reference import reference_records, reference_summary

PIN_ARGV = (
    "verify", "--claims", "all", "--functions", "all", "--trials", "3", "--seed", "5",
)
# sha256 of each format's report of PIN_ARGV, as written before reports
# were streamed (every record built, sorted and summarized first).
PINS = {
    "json": "4909292823737b5942ef6592ac655598c7299754c0f35e489bd9879294ba1b53",
    "csv": "db943ac1667b57476e1891b58588eebbe4734fc59745ccaf0c5d31f646805126",
    "table": "d75081d560820cc7dd4cd8150859111ae63f9b591d1b868ce617a2b00161fd0a",
}


def _main(argv):
    """Runs the CLI in-process: (exit code, stdout)."""
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        return cli.main(list(argv)), sys.stdout.getvalue()
    finally:
        sys.stdout = old


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(PINS))
def test_pinned_report_on_stdout(fmt, monkeypatch):
    monkeypatch.delenv("HHBOUNDS_SEED", raising=False)
    code, out = _main((*PIN_ARGV, "--format", fmt))
    assert code == 1  # stated-only claims are violated
    assert _sha(out) == PINS[fmt]


@pytest.mark.parametrize("fmt", sorted(PINS))
def test_pinned_report_at_out(fmt, monkeypatch, tmp_path):
    monkeypatch.delenv("HHBOUNDS_SEED", raising=False)
    target = tmp_path / f"report.{fmt}"
    code, out = _main((*PIN_ARGV, "--format", fmt, "--out", str(target)))
    assert (code, out) == (1, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINS[fmt]
    assert os.listdir(tmp_path) == [target.name]  # nothing left beside it


def _lists(values, max_size):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size)


# Unsorted and repeated ids, intervals and grid values, 0.0 beside -0.0:
# records whose sort keys tie must come out in the order a stable sort of
# the whole campaign gives them.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    claims=_lists(claim_ids(), 3),
    functions=_lists(function_ids(), 2),
    intervals=_lists([(1.0, 2.0), (0.5, 1.5), (0.0, 1.0), (-0.0, 1.0), (0.25, 0.75)], 3),
    lams=_lists([0.5, 0.0, 1.0, -0.0, 0.25, 1 / 3], 3),
    qs=_lists([2.0, 1.0, 4.0, 1.5], 2),
    trials=st.integers(0, 1),
)
@example(  # ties at every level of the key, told apart by the sign of zero
    claims=["thm6-derived", "hh", "thm6-stated", "thm6-stated"],
    functions=["poly3", "const1", "poly3"],
    intervals=[(0.0, 1.0), (1.0, 2.0), (-0.0, 1.0)],
    lams=[0.5, -0.0, 0.0],
    qs=[2.0, 1.0],
    trials=0,
)
def test_stream_equals_whole_document(claims, functions, intervals, lams, qs, trials):
    cfg = CampaignConfig(
        claims=tuple(claims),
        functions=tuple(functions),
        intervals=tuple(intervals),
        lambda_grid=tuple(lams),
        q_grid=tuple(qs),
        trials=trials,
        seed=11,
    )
    records = reference_records(cfg)
    summary = reference_summary(records, resolve_claims(cfg.claims))
    whole = cli.report_document(CampaignResult(cfg, tuple(records), summary))
    written = {}
    for fmt in ("json", "csv", "table"):
        buf = io.StringIO()
        cli._write_report(cli.report_document(CampaignStream(cfg)), fmt, buf)
        written[fmt] = buf.getvalue()
    assert written["json"] == json.dumps(whole, indent=2) + "\n"
    assert written["csv"] == cli.to_csv(records)
    assert written["table"] == cli.to_table(whole)


def test_run_campaign_is_the_stream():
    cfg = CampaignConfig(claims=("hh", "thm5"), functions=("poly3", "expx"), trials=2)
    stream = CampaignStream(cfg)
    blocks = list(stream)
    result = harness.run_campaign(cfg)
    assert result.records == tuple(r for block in blocks for r in block)
    assert result.summary == stream.summary
    # one block per claim on one (function, interval)
    assert len(blocks) == 2 * 2 * 3
    assert all(len({(r.claim, r.function, r.a, r.b) for r in b}) == 1 for b in blocks)


# Runs the command in its argv and prints that process's peak RSS in MB.  On
# Linux a process reports at least the RSS of the process it was forked
# from, so the command is forked from this small interpreter, not from the
# test process.
_PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
sys.exit(code)
"""


def test_memory_does_not_grow_with_the_records(tmp_path):
    # 61 intervals give 140,910 records.  Kept in memory until written, they
    # took the process to 140 MB; streamed it peaks near 45 MB, most of it
    # the interpreter with numpy and mpmath.
    env = {k: v for k, v in os.environ.items() if k != "HHBOUNDS_SEED"}
    target = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "hhbounds",
         "verify", "--claims", "all", "--functions", "all", "--trials", "60",
         "--seed", "7", "--out", str(target)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(target.read_text())["summary"]["total"] == 140910
    assert int(proc.stdout.split()[-1]) < 80


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_run_that_raises_leaves_no_report(fmt, monkeypatch, tmp_path):
    evaluate = harness._evaluate_block
    blocks = []

    def fails_after_40_blocks(*args):
        if len(blocks) == 40:
            raise RuntimeError("evaluation failed")
        blocks.append(None)
        return evaluate(*args)

    monkeypatch.setattr(harness, "_evaluate_block", fails_after_40_blocks)
    target = tmp_path / "report"
    argv = ("verify", "--claims", "all", "--functions", "all", "--format", fmt,
            "--out", str(target))
    with pytest.raises(RuntimeError):
        _main(argv)
    assert os.listdir(tmp_path) == []
    # a report already there is left as it was
    target.write_text("earlier report\n")
    blocks.clear()
    with pytest.raises(RuntimeError):
        _main(argv)
    assert os.listdir(tmp_path) == ["report"]
    assert target.read_text() == "earlier report\n"


def test_out_where_no_file_can_be_made_beside_it(monkeypatch, tmp_path):
    # the file beside the target cannot be created (a directory holds its
    # name): the target is written in place
    monkeypatch.delenv("HHBOUNDS_SEED", raising=False)
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    (tmp_path / f".report.json.{os.getpid()}.part").mkdir()
    code, out = _main((*PIN_ARGV, "--out", str(target)))
    assert (code, out) == (1, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINS["json"]


def test_out_to_a_device_is_written_in_place(monkeypatch):
    # a target that is not a regular file is never replaced
    monkeypatch.delenv("HHBOUNDS_SEED", raising=False)
    code, out = _main(("verify", "--claims", "hh", "--functions", "poly2",
                       "--out", os.devnull))
    assert (code, out) == (0, "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
