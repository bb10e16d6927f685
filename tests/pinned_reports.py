"""Every pinned report of hhbounds in one table, run from the root of a
checkout as ``PYTHONPATH=src python tests/pinned_reports.py``: every row
on all usable CPUs, then the rows marked ``one_cpu`` again with this
process's affinity, which its children inherit, set to one CPU.  After each
run no child so far may have peaked above 150 MB of RSS; a child's peak
includes this process's RSS when it was started, so the trials=300 rows run
first.  HHBOUNDS_SEED, which would override ``--seed``, is dropped.  One
line is printed per run, and the exit status is 1 if any run failed.
pytest does not collect this file; ``test_pinned_reports.py`` runs its
q-grid row."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import traceback
from functools import partial
from typing import Callable, NamedTuple, Optional

from hhbounds import cli, harness


class Row(NamedTuple):
    name: str
    producer: Callable[[], tuple]  # () -> (exit code, sha256, record lines or None)
    code: int
    sha256: str
    lines: Optional[int] = None
    one_cpu: bool = False


SEARCH = ("--functions", "all", "--trials", "200", "--seed", "7")
NONPOLY = harness.CampaignConfig(claims=("all",), functions=("expx", "bump"), trials=200, seed=7,
                                 interval_range=(0.0, 1.0), min_width=0.01)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hhbounds(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """`python -m hhbounds ARGS` in a child process without HHBOUNDS_SEED."""
    env = {k: v for k, v in os.environ.items() if k != "HHBOUNDS_SEED"}
    return subprocess.run([sys.executable, "-m", "hhbounds", *args], env=env, **kwargs)


def _verify(fmt: str, trials: int, seed: int, *args: str) -> tuple:
    """`verify --claims all --functions all --trials TRIALS --seed SEED ARGS
    --format FMT --out FILE`, FILE hashed and counted while it is read line
    by line: a JSON record opens with the line "    {", and every line of a
    CSV file counts, its header too."""
    sha, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        run = _hhbounds("verify", "--claims", "all", "--functions", "all", "--trials", str(trials),
                        "--seed", str(seed), *args, "--format", fmt, "--out", out,
                        stderr=subprocess.DEVNULL)
        with contextlib.suppress(FileNotFoundError), open(out, "rb") as fh:
            for line in fh:
                sha.update(line)
                count += line == b"    {\n" if fmt == "json" else 1
    return run.returncode, sha.hexdigest(), count


def _nonpoly(streamed: bool) -> tuple:
    """NONPOLY as CSV, streamed or from `harness.run_campaign`."""
    out = io.StringIO()
    if streamed:
        cli.to_csv(itertools.chain.from_iterable(harness.CampaignStream(NONPOLY)), out)
    else:
        cli._write_report(cli.report_document(harness.run_campaign(NONPOLY)), "csv", out)
    return 0, _sha(out.getvalue()), None


def _search(in_process: bool) -> tuple:
    """The joined stdout of `search --claim <id> SEARCH` over every claim,
    through `cli.main` in this process or each in a fresh interpreter."""
    if not in_process:
        runs = [_hhbounds("search", "--claim", cid, *SEARCH, stdout=subprocess.PIPE, text=True)
                for cid in harness.claim_ids()]
        return max(r.returncode for r in runs), _sha("".join(r.stdout for r in runs)), None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = max(cli.main(["search", "--claim", cid, *SEARCH]) for cid in harness.claim_ids())
    return code, _sha(out.getvalue()), None


def _searches(ranges, seeds=(7,), trials=200, keyed=False) -> tuple:
    """`harness.find_counterexample` for every claim, seed and (interval
    range, min width): the sha256 of the outcomes [claim, trials, record],
    keyed [claim, seed, range, trials, record], as JSON."""
    outcomes = []
    for cid, seed, (r, w) in itertools.product(harness.claim_ids(), seeds, ranges):
        config = harness.CampaignConfig(
            functions=("all",), trials=trials, seed=seed, interval_range=r, min_width=w)
        out = harness.find_counterexample(cid, config)
        key = [cid, seed, r] if keyed else [cid]
        outcomes.append([*key, out.trials, None if out.record is None else out.record.as_dict()])
    return 0, _sha(json.dumps(outcomes)), None


ROWS = (
    # 301 intervals, 330 records per (function, interval) for 7 functions;
    # they violate stated-only claims and no proof-backed one, hence exit 1.
    # On one CPU the CLI's campaign runs in one process, which evaluates
    # and formats every block; on several, each process formats its own.
    Row("verify --trials 300 JSON", partial(_verify, "json", 300, 7),
        1, "a0bd86f192df93d171c7a306eb16004ef2a8a83841b289b4655d455ea2818b2a", 695310, True),
    Row("verify --trials 300 CSV", partial(_verify, "csv", 300, 7),
        1, "5079c013419df9c1b0c39d36b0c849e485b9f6aa4b1fbea21ac6384efcf08124", 695311, True),
    # q = 2.5 takes the exact root of a half-integer q (u = 5), 3 an odd
    # integer root, and 1.7 (a double whose denominator is 2^52) the
    # 50-digit mpf root.
    Row("verify --q-grid 1,1.5,1.7,2.5,3", partial(_verify, "csv", 20, 7, "--q-grid", "1,1.5,1.7,2.5,3"),
        1, "f437f4d2e90f585a88e6db2311ebe1c61b49909f71f986811879894f85e84091"),
    # The first campaign seeds of bench seed 4242's verify-dense sequence:
    # the bench prints the hash of its last pass only, whose seed depends
    # on how many passes fit, so these reports are compared here.
    *(Row(f"verify-dense --seed {seed}", partial(_verify, "json", 20, seed), 1, sha256)
      for seed, sha256 in (
          (565894658, "1ecc266edafa123f32ff904465d376d6a3a2b01e689dd7cc41715ffd3eb172d5"),
          (122197617, "56e0872ccbc4f356aaef559fbc940f7d97585e1e7944ed9847c35e62a2f695ac"),
          (1676170254, "e5d290f58e2eeda37fa1eb2c0a89fdffcec44ec742141d2e0469874177fc04bb"))),
    # 132,660 records, those of hh, hh-p, the envelopes and simpson-4th-*
    # among them reaching the refined confirmation.  On one CPU the reader
    # evaluates every block itself, so refined and undefined records are
    # written without going through a worker's pipe.
    *(Row(f"non-polynomial CSV, {how}", partial(_nonpoly, how == "streamed"),
          0, "25e9aaedf8100e263f9f46e285b3a28307a9d40da94018d9dc45c17f736a5a96", one_cpu=True)
      for how in ("streamed", "from run_campaign")),
    # One digest in one process and in one per claim: a search's output
    # does not depend on what ran before it in the process.
    *(Row(f"search, {how}", partial(_search, how == "in process"),
          0, "22d263c8209761cc32e37a9b2b8491236babb56e7e9eac7d24f940b6a7910ea5")
      for how in ("in process", "one process per claim")),
    # (0, 1) puts the bump in its domain; (-50, -0.5) leaves only expx and
    # const1 in theirs.
    Row("find_counterexample on (0, 1)", partial(_searches, [((0.0, 1.0), 0.05)]),
        0, "4b38eab26fba4457582fdc14343ab06161b573c0ab653555fde7d47a7df8ce71"),
    Row("find_counterexample on (-50, -0.5)", partial(_searches, [((-50.0, -0.5), 0.05)]),
        0, "b352522cee348d5673b85b6e6a41da2151e6c893fc0abb8f97993bc432cee775"),
    # every claim x seeds 1000-1024 x 4 interval ranges, 40 trials each
    Row("find_counterexample, 3,000 searches", partial(
        _searches, [((0.1, 10.0), 0.05), ((0.0, 1.0), 0.01), ((-3.0, 3.0), 0.05), ((-50.0, -0.5), 0.05)],
        range(1000, 1025), 40, keyed=True),
        0, "954d682d0b09b149415112aff0df85d8a27093af182d56babe85a408286135b0"),
)


def _run(row: Row, where: str) -> bool:
    try:
        code, sha256, lines = row.producer()
    except Exception:
        print(f"FAIL {row.name}{where}:", flush=True)
        traceback.print_exc()
        return False
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    ok = code == row.code and sha256 == row.sha256 and row.lines in (None, lines) and peak_mb <= 150
    counted = "" if row.lines is None else f", {lines} lines"
    print(f"{'ok  ' if ok else 'FAIL'} {row.name}{where}: exit {code}{counted}, sha256 {sha256}, "
          f"child peak {peak_mb:.1f} MB", flush=True)
    return ok


def main() -> int:
    os.environ.pop("HHBOUNDS_SEED", None)
    passed = [_run(row, "") for row in ROWS]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    passed += [_run(row, " on one CPU") for row in ROWS if row.one_cpu]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
