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


# The bench-scale verify campaign: every claim and function on 20 random
# intervals (48,510 records), its JSON report as written before the
# lambda-family claims were evaluated a lam row at a time.
BENCH_ARGV = (
    "verify", "--claims", "all", "--functions", "all", "--trials", "20",
    "--seed", "1785390952",
)
BENCH_PIN = "cb028305c6ad2a5f07a4117097ffbf6589cbd7a95de9f4f689085f85d59b6c48"


def test_pinned_bench_scale_report(monkeypatch, tmp_path):
    monkeypatch.delenv("HHBOUNDS_SEED", raising=False)
    target = tmp_path / "report.json"
    code, out = _main((*BENCH_ARGV, "--out", str(target)))
    assert (code, out) == (1, "")  # stated-only claims are violated
    assert hashlib.sha256(target.read_bytes()).hexdigest() == BENCH_PIN


def _lists(values, max_size):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size, unique=True)


# Unsorted ids, intervals and grid values, each given once (a config
# rejects repeats; 0.0 and -0.0 are one value), -0.0 in place of 0.0: the
# records must come out in the order a stable sort of the whole campaign
# gives them.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    claims=_lists(claim_ids(), 3),
    functions=_lists(function_ids(), 2),
    intervals=_lists([(1.0, 2.0), (0.5, 1.5), (0.0, 1.0), (-0.0, 1.0), (0.25, 0.75)], 3),
    lams=_lists([0.5, 0.0, 1.0, -0.0, 0.25, 1 / 3], 3),
    qs=_lists([2.0, 1.0, 4.0, 1.5], 2),
    trials=st.integers(0, 1),
)
@example(  # unsorted at every level of the key, with a lone -0.0
    claims=["thm6-derived", "hh", "thm6-stated"],
    functions=["poly3", "const1"],
    intervals=[(1.0, 2.0), (-0.0, 1.0)],
    lams=[0.5, -0.0, 1.0],
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
    as_dicts = {**whole, "records": [r.as_dict() for r in records]}
    assert written["json"] == json.dumps(as_dicts, indent=2) + "\n"
    assert written["csv"] == cli.to_csv(records)
    assert written["table"] == cli.to_table(whole)


@pytest.mark.parametrize("fmt", sorted(PINS))
def test_campaign_result_report_is_the_streamed_report(fmt):
    # the report of PIN_ARGV's campaign from run_campaign's CampaignResult
    cfg = CampaignConfig(claims=("all",), functions=("all",), trials=3, seed=5)
    buf = io.StringIO()
    cli._write_report(cli.report_document(harness.run_campaign(cfg)), fmt, buf)
    assert _sha(buf.getvalue()) == PINS[fmt]


@pytest.mark.parametrize("fmt", ["csv", "table"])  # json: tests/test_json_writer.py
def test_a_dict_record_raises(fmt):
    record = harness.run_campaign(CampaignConfig(claims=("thm5",), functions=("poly3",))).records[0]
    summary = {"total": 1, "by_status": {}, "violated_stated_only": [], "violated_proof_backed": []}
    for records in ([record.as_dict()], [record, record.as_dict()]):
        doc = {"version": "0.1.0", "config": {}, "records": records, "summary": summary}
        with pytest.raises(TypeError):
            cli._write_report(doc, fmt, io.StringIO())


def test_unsorted_grids_give_the_sorted_grids_records():
    # each block is evaluated lam-major over the sorted grids
    def report(lams, qs):
        cfg = CampaignConfig(
            claims=("thm6-stated", "cor1-stated", "hh"), functions=("poly3", "expx"),
            lambda_grid=lams, q_grid=qs, trials=1, seed=3,
        )
        result = harness.run_campaign(cfg)
        return cli.to_csv(result.records), result.summary

    assert report((1.0, 0.5, -0.0), (4.0, 1.0, 2.0)) == report(
        (-0.0, 0.5, 1.0), (1.0, 2.0, 4.0)
    )


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_iterator_is_written_a_record_at_a_time(fmt):
    # each record reaches ``out`` before the next is drawn, so a writer
    # holds no more than one record of an iterator that is not a stream
    cfg = CampaignConfig(claims=("thm6-stated", "hh"), functions=("poly3", "expx"), trials=1)
    records = harness.run_campaign(cfg).records
    out, written = io.StringIO(), []

    def drawn():
        for record in records:
            # the records in ``out`` so far: CSV rows after the header line
            text = out.getvalue()
            written.append(text.count('"claim": ') if fmt == "json" else text.count("\n") - 1)
            yield record

    if fmt == "json":
        cli.to_json({"records": drawn(), "summary": {}}, out)
        assert json.loads(out.getvalue())["records"] == [r.as_dict() for r in records]
    else:
        cli.to_csv(drawn(), out)
        assert out.getvalue() == cli.to_csv(records)
    assert written == list(range(len(records)))


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


# A campaign's (function, interval) pairs are shared among processes: the
# bump on two intervals inside its domain and one outside it, where every
# record is 'hypothesis_failed', beside expx and poly3.
SPLIT = CampaignConfig(
    claims=("all",), functions=("poly3", "bump", "expx"),
    intervals=((0.0, 1.0), (0.5, 2.0), (0.25, 0.75)),
    lambda_grid=(0.0, 0.25, 0.5, 1.0),
)


def _on_processes(monkeypatch, n):
    """Campaigns from here on run on ``n`` processes."""
    monkeypatch.setattr(harness, "_processes", lambda pairs: n)


def test_reports_do_not_depend_on_the_process_count(monkeypatch):
    # every block a worker sends, as records or, for JSON and CSV, as text,
    # is read by _receive
    receive, received = harness._receive, []

    def counted(pid, reader):
        received.append(pid)
        return receive(pid, reader)

    monkeypatch.setattr(harness, "_receive", counted)
    reports, summaries = {}, {}
    for n in (1, 2, 3):
        _on_processes(monkeypatch, n)
        reports[n] = {}
        for fmt in ("json", "csv", "table"):
            stream, buf = CampaignStream(SPLIT), io.StringIO()
            cli._write_report(cli.report_document(stream), fmt, buf)
            reports[n][fmt] = buf.getvalue()
            summaries[n] = stream.summary
        # the blocks of pair i, for i mod n > 0, came from a worker
        assert len(received) == 3 * len(claim_ids()) * sum(i % n > 0 for i in range(9))
        assert len(set(received)) == 3 * (n - 1)  # n - 1 workers per report
        received.clear()
    assert reports[1] == reports[2] == reports[3]
    assert summaries[1] == summaries[2] == summaries[3]
    margins = {
        n: [repr(e["min_margin"]) for e in s["claims"].values()] for n, s in summaries.items()
    }
    assert margins[1] == margins[2] == margins[3]  # -0.0 and 0.0 too


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_workers_format_their_own_blocks(fmt, monkeypatch):
    # at n = 2 the reader formats the records of pairs 0, 2, 4, 6 and 8
    # (functions by id, intervals sorted) and no record of a worker's block
    record_writer, reader, formatted = cli._record_writer, os.getpid(), []

    def logged(*pieces):
        write_records = record_writer(*pieces)

        def logging(records, *args):
            if os.getpid() == reader:
                records = list(records)
                formatted.extend((r.function, r.a, r.b) for r in records)
            return write_records(records, *args)

        return logging

    reports = {}
    for n in (1, 2):
        _on_processes(monkeypatch, n)
        if n == 2:
            monkeypatch.setattr(cli, "_record_writer", logged)
        stream, buf = CampaignStream(SPLIT), io.StringIO()
        cli._write_report(cli.report_document(stream), fmt, buf)
        reports[n] = buf.getvalue()
    assert reports[1] == reports[2]
    pairs = [(fid, *iv) for fid in sorted(SPLIT.functions) for iv in sorted(SPLIT.intervals)]
    assert set(formatted) == set(pairs[::2])
    # each pair has as many records, and the reader formats each of its own once
    assert len(formatted) * 9 == stream.summary["total"] * 5


def test_pinned_bench_scale_report_on_two_processes(monkeypatch, tmp_path):
    monkeypatch.delenv("HHBOUNDS_SEED", raising=False)
    _on_processes(monkeypatch, 2)
    target = tmp_path / "report.json"
    code, out = _main((*BENCH_ARGV, "--out", str(target)))
    assert (code, out) == (1, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == BENCH_PIN


def _failing(monkeypatch, where, exc, module=harness, name="_evaluate_block"):
    """``module.name`` (``harness._evaluate_block``) raises ``exc`` in the
    reading process (``where="reader"``) or in the workers, from its second
    call there."""
    original, reader, calls = getattr(module, name), os.getpid(), []

    def failing(*args):
        if (os.getpid() == reader) == (where == "reader"):
            calls.append(None)
            if len(calls) > 1:
                raise exc
        return original(*args)

    monkeypatch.setattr(module, name, failing)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_exception_reaches_the_caller(monkeypatch):
    _on_processes(monkeypatch, 2)
    _failing(monkeypatch, "worker", RuntimeError("evaluation failed"))
    with pytest.raises(RuntimeError, match="evaluation failed") as info:
        list(CampaignStream(SPLIT))
    # the worker's traceback is attached
    assert "in failing\n" in str(info.value.__cause__)
    _no_child_left()


def test_worker_exception_pickle_cannot_write(monkeypatch):
    class Local(Exception):
        pass

    _on_processes(monkeypatch, 2)
    _failing(monkeypatch, "worker", Local("evaluation failed"))
    with pytest.raises(RuntimeError, match=r"Local\('evaluation failed'\)"):
        list(CampaignStream(SPLIT))
    _no_child_left()


# A worker that fails while it formats a block: ``cli._repr`` formats the
# floats of JSON and CSV records; an exception of a class defined in a
# function is one pickle cannot write.
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("picklable", [True, False])
def test_worker_exception_in_render_reaches_the_caller(fmt, picklable, monkeypatch):
    class Local(Exception):
        pass

    exc, match = (
        (RuntimeError("formatting failed"), "formatting failed") if picklable
        else (Local("formatting failed"), r"Local\('formatting failed'\)")
    )
    _on_processes(monkeypatch, 2)
    _failing(monkeypatch, "worker", exc, cli, "_repr")
    with pytest.raises(RuntimeError, match=match) as info:
        cli._write_report(cli.report_document(CampaignStream(SPLIT)), fmt, io.StringIO())
    # the worker's traceback is attached, through the block's render
    assert "in render\n" in str(info.value.__cause__)
    assert "in failing\n" in str(info.value.__cause__)
    _no_child_left()


@pytest.mark.parametrize("end", ["complete", "raise", "close"])
def test_no_worker_outlives_the_stream(monkeypatch, end):
    _on_processes(monkeypatch, 2)
    blocks = iter(CampaignStream(SPLIT))
    if end == "complete":
        assert sum(map(len, blocks)) > 0
    elif end == "raise":
        _failing(monkeypatch, "reader", RuntimeError("evaluation failed"))
        with pytest.raises(RuntimeError, match="evaluation failed"):
            list(blocks)
    else:
        next(blocks)
        blocks.close()
    _no_child_left()


# A stream that completes, one closed after its first block, one dropped
# after it, and one whose worker raises.
_ENDS = """
import os
from hhbounds import harness
harness._processes = lambda pairs: 2
cfg = harness.CampaignConfig(
    claims=("hh", "thm5"), functions=("poly3", "expx"), intervals=((1.0, 2.0), (0.5, 1.5)),
)
list(harness.CampaignStream(cfg))
blocks = iter(harness.CampaignStream(cfg))
next(blocks)
blocks.close()
next(iter(harness.CampaignStream(cfg)))
evaluate, reader = harness._evaluate_block, os.getpid()

def failing(*args):
    if os.getpid() != reader:
        raise RuntimeError("evaluation failed")
    return evaluate(*args)

harness._evaluate_block = failing
try:
    list(harness.CampaignStream(cfg))
except RuntimeError as exc:
    print(exc)
"""


def test_streams_leave_no_pipe_open():
    # an unclosed pipe would print a ResourceWarning, an error here
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _ENDS],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "evaluation failed\n", "")
