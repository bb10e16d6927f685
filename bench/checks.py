"""Output checks.  Each returns a list of failure messages; empty means pass.

The checks hold for any correct program, not for one commit's report: no
report hash is pinned, because verdict fixes are expected to change reports.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

STATUSES = ("holds", "equality", "violated", "hypothesis_failed", "undefined")
PROOF_BACKED = "proof-backed"
STATED_ONLY = "stated-only"


def expected_records(claims, n_functions: int, n_intervals: int, n_lambda: int, n_q: int) -> int:
    """Size of the claim x function x interval x lambda x q enumeration."""
    per_panel = sum(
        (n_lambda if c.uses_lambda else 1) * (n_q if c.uses_q else 1) for c in claims
    )
    return per_panel * n_functions * n_intervals


def identical_hashes(label: str, passes: list[dict]) -> list[str]:
    """Passes run with the same seed must give byte-identical outputs."""
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["seed"], set()).add(p["sha256"])
    return [
        f"{label}: report hashes differ between passes of seed {seed}: {sorted(hashes)}"
        for seed, hashes in by_seed.items()
        if len(hashes) != 1
    ]


def parse_csv(text: str) -> list[dict]:
    """Records of a ``to_csv`` report, with numbers and booleans restored."""
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        rec = dict(row)
        for key in ("a", "b", "lambda", "q", "lhs", "rhs", "margin"):
            rec[key] = None if rec[key] == "" else float(rec[key])
        rec["exact"] = rec["exact"] == "true"
        out.append(rec)
    return out


def record_count(records: list[dict], expected: int) -> list[str]:
    if len(records) != expected:
        return [f"record count {len(records)} != enumerated {expected}"]
    return []


def summary_matches(records: list[dict], summary: dict, provenance: dict) -> list[str]:
    """The report's summary must be recomputable from its records."""
    fails = []
    if summary.get("total") != len(records):
        fails.append(f"summary total {summary.get('total')} != {len(records)} records")
    by_status = Counter(r["status"] for r in records)
    want = {s: by_status.get(s, 0) for s in STATUSES}
    if summary.get("by_status") != want:
        fails.append(f"summary by_status {summary.get('by_status')} != records {want}")

    per_claim: dict = {}
    for r in records:
        entry = per_claim.setdefault(r["claim"], {"records": 0, "by_status": Counter(), "min_margin": None})
        entry["records"] += 1
        entry["by_status"][r["status"]] += 1
        m = r["margin"]
        if m is not None and (entry["min_margin"] is None or m < entry["min_margin"]):
            entry["min_margin"] = m
    claims = summary.get("claims", {})
    for cid, entry in per_claim.items():
        got = claims.get(cid)
        if got is None:
            fails.append(f"summary lacks claim {cid}")
            continue
        if got["records"] != entry["records"]:
            fails.append(f"{cid}: summary records {got['records']} != {entry['records']}")
        if got["by_status"] != {s: entry["by_status"].get(s, 0) for s in STATUSES}:
            fails.append(f"{cid}: summary by_status {got['by_status']} != records")
        if got["min_margin"] != entry["min_margin"]:
            fails.append(f"{cid}: summary min_margin {got['min_margin']} != {entry['min_margin']}")

    for cid, got in claims.items():
        if got["records"] and cid not in per_claim:
            fails.append(f"summary counts {got['records']} records for {cid}, the report has none")

    violated = sorted({r["claim"] for r in records if r["status"] == "violated"})
    for key, prov in (("violated_stated_only", STATED_ONLY), ("violated_proof_backed", PROOF_BACKED)):
        want_ids = [c for c in violated if provenance[c] == prov]
        if summary.get(key) != want_ids:
            fails.append(f"summary {key} {summary.get(key)} != records {want_ids}")
    return fails


def no_proof_backed_violation(records: list[dict], provenance: dict) -> list[str]:
    bad = sorted({r["claim"] for r in records if r["status"] == "violated" and provenance[r["claim"]] == PROOF_BACKED})
    return [f"proof-backed claims violated: {bad}"] if bad else []


def paper_counterexample(records: list[dict]) -> list[str]:
    """cor1-stated on x^3 over [1, 2] at q = 2: lhs 3/8 > rhs sqrt(5)/8."""
    hits = [
        r for r in records
        if r["claim"] == "cor1-stated" and r["function"] == "poly3"
        and r["a"] == 1.0 and r["b"] == 2.0 and r["q"] == 2.0
    ]
    if len(hits) != 1:
        return [f"expected one cor1-stated/poly3/[1, 2]/q=2 record, found {len(hits)}"]
    r = hits[0]
    ok = (
        r["status"] == "violated" and r["exact"] is True and r["lhs"] == 0.375
        and r["rhs"] is not None and math.isclose(r["rhs"], math.sqrt(5) / 8, rel_tol=1e-15)
    )
    return [] if ok else [f"paper counterexample not reproduced: {r}"]


def search_outcomes(outcomes: list[dict], provenance: dict) -> list[str]:
    """Every returned counterexample is a violated record of the stated-only
    claim that was searched."""
    fails = []
    for o in outcomes:
        r = o["record"]
        if r is None:
            continue
        if r["claim"] != o["claim"] or r["status"] != "violated" or provenance[o["claim"]] != STATED_ONLY:
            fails.append(f"search for {o['claim']} (seed {o['seed']}) returned {r}")
    return fails
