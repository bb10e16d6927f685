"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, through the same
code as a real run, and requires every metric named in BENCHMARK.json to be
printed.  Then flips one record's status in a real report (JSON and CSV) and
in one search result, and requires the output checks to reject each.

Usage, from the root of a checkout:  python3 bench/smoke.py   (exit 0 = pass)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import run
import workloads

TINY = workloads.SIZES["tiny"]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def metrics_print(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                correct, result = run.run_benchmark(workload, 1, 0.2, trace, "tiny")
            text = out.getvalue()
            label = f"{workload} trace={int(trace)}"
            require(correct, f"{label}: checks failed\n{text}")
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {set(result)}")
            require(result["attempted"] >= 1, f"{label}: nothing attempted")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                name = m["name"]
                require(name in result["metrics"], f"{label}: metric {name} missing from the result")
                require(f"  {name} " in text, f"{label}: metric {name} not printed")
                value = result["metrics"][name]["value"]
                require(isinstance(value, (int, float)), f"{label}: {name} is not a number")
                if not trace:
                    require(value > 0, f"{label}: end-to-end metric {name} is {value}")
            print(f"ok   {label}: {len(wanted)} metrics printed, checks passed")


def _flip(record: dict) -> None:
    record["status"] = "equality" if record["status"] != "equality" else "holds"


def flipped_reports_fail(workdir) -> None:
    """The reports left by the tiny runs pass the checks; with one status
    flipped they must not."""
    fake_pass = {"seed": 1, "sha256": "same", "errors": [], "exit_code": 1}
    runs = [{"warmup": fake_pass, "passes": [fake_pass]}]

    dense = workdir / "verify-dense.json"
    fails, _ = run.check_outputs("verify-dense", TINY, workdir, runs)
    require(not fails, f"unflipped dense report fails: {fails}")
    doc = json.loads(dense.read_text())
    _flip(doc["records"][len(doc["records"]) // 2])
    dense.write_text(json.dumps(doc))
    fails, _ = run.check_outputs("verify-dense", TINY, workdir, runs)
    require(bool(fails), "dense report with a flipped status passes the checks")
    print(f"ok   flipped status in the JSON report is caught: {fails[0][:100]}")

    nonpoly = workdir / "verify-nonpoly.csv"
    fails, _ = run.check_outputs("verify-nonpoly", TINY, workdir, runs)
    require(not fails, f"unflipped CSV report fails: {fails}")
    lines = nonpoly.read_text().splitlines(keepends=True)
    row = lines[1].split(",")
    status_col = lines[0].rstrip("\n").split(",").index("status")
    row[status_col] = "equality" if row[status_col] != "equality" else "holds"
    lines[1] = ",".join(row)
    nonpoly.write_text("".join(lines))
    fails, _ = run.check_outputs("verify-nonpoly", TINY, workdir, runs)
    require(bool(fails), "CSV report with a flipped status passes the checks")
    print(f"ok   flipped status in the CSV report is caught: {fails[0][:100]}")

    search = workloads.Search(1, TINY, workdir).run_pass()
    prov = run._provenance()
    found = [o for o in search["outcomes"] if o["record"] is not None]
    require(found and not checks.search_outcomes(search["outcomes"], prov), "tiny search found nothing valid")
    _flip(found[0]["record"])
    require(bool(checks.search_outcomes(search["outcomes"], prov)), "flipped search result passes the checks")
    print("ok   flipped status in a search result is caught")


def main() -> int:
    spec = run.load_spec()
    metrics_print(spec)
    flipped_reports_fail(run.BENCH_DIR.parent / ".bench_work")
    print("smoke: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
