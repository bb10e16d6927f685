"""The benchmark's workloads: inputs made from the seed, and one pass each.

Each workload is a closed loop with one caller: a pass issues its requests
one after another, and the next pass starts only when the previous one has
returned.  Everything runs in one process without threads.

* ``verify-dense``   -- the ``hhbounds verify`` campaign over every claim and
  corpus function with 20 random intervals, written as a JSON report.  Dense
  lambda x q grid per panel; rational and 50-digit confirmation; JSON output.
  Each timed pass takes the next of a sequence of seeds.
* ``verify-nonpoly`` -- ``run_campaign`` over every claim for ``expx`` and
  ``bump`` on sub-intervals of [0, 1], written with ``to_csv``.  No
  polynomial confirmation; the oracle refine path and non-P-convex scans
  dominate.  Intervals are drawn uniformly, so most miss the bump's peak and
  the absolute tolerance floor of the status decision stays visible.
* ``search``         -- ``find_counterexample`` for every claim and eight
  seeds.  Every attempt draws a fresh interval, so the per-run caches rarely
  hit and the P-convexity scan dominates.

While untraced passes run, a wall-clock timer interrupts them every 18 ms to
time a fixed piece of the benchmark's own work, the host-speed reference
(``reference_chunk``, about 5% of the time); its time is taken out of the
request latencies.  A shared host's speed drifts by tens of percent over
minutes; dividing a pass's time by the reference time sampled during it
removes that drift from the timing metrics (see run.py).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import signal
import time
import traceback
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

# Work per pass.  "full" is the benchmark; "tiny" runs the same code paths in
# a fraction of a second for the smoke test.
SIZES = {
    "full": {"dense_trials": 20, "nonpoly_intervals": 80, "search_trials": 40, "search_seeds": 8},
    "tiny": {"dense_trials": 0, "nonpoly_intervals": 2, "search_trials": 3, "search_seeds": 1},
}

NONPOLY_FUNCTIONS = ("expx", "bump")
NONPOLY_MIN_WIDTH = 0.05


def nonpoly_intervals(seed: int, count: int) -> list[tuple[float, float]]:
    """Sub-intervals 0 <= a < b <= 1 of width >= 0.05, distributed like the
    harness's own sampler (a uniform, then b uniform above a + 0.05).

    The two uniforms are Latin-hypercube stratified: each of ``count`` equal
    strata of either one holds exactly one draw.  The work of a pass depends
    on where the intervals fall relative to the bump's peak, so stratifying
    keeps that work from swinging with the seed.
    """
    rng = random.Random(seed)
    b_strata = list(range(count))
    rng.shuffle(b_strata)
    out = []
    for i, j in enumerate(b_strata):
        u = (i + rng.random()) / count
        v = (j + rng.random()) / count
        a = u * (1.0 - NONPOLY_MIN_WIDTH)
        b = a + NONPOLY_MIN_WIDTH + v * (1.0 - NONPOLY_MIN_WIDTH - a)
        out.append((a, b))
    return out


def search_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


# Host-speed reference.  REFERENCE_S is about the median time of one chunk on
# a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, mpmath 1.3 with its
# pure-Python backend); scaled timings are seconds on a host where a chunk
# takes that long.
REFERENCE_S = 0.9e-3
REFERENCE_PERIOD_S = 0.018

_REF_FRACTIONS = [Fraction(1, k * k + 1) for k in range(1, 37)]
_REF_XS = np.linspace(0.0, 1.0, 21)
_REF_LAMS = np.linspace(0.0, 1.0, 11)


def reference_chunk() -> float:
    """Seconds taken by one fixed chunk of work in the program's mix --
    Fraction and 50-digit mpmath arithmetic, a float loop and a broadcast
    numpy scan like the P-convexity check's -- with the collector off, so
    that the program's live heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for f in _REF_FRACTIONS:
            acc += f * f - f / 3
        with mpmath.workdps(50):
            m = mpmath.mpf(1)
            for k in range(1, 19):
                m = m * mpmath.mpf(k + 2) / 7 + mpmath.sqrt(mpmath.mpf(k))
        s = 0.0
        for k in range(450):
            s += math.sqrt(k + 0.5) * math.exp(-k * 1e-3)
        lam = _REF_LAMS[None, None, :]
        mix = lam * _REF_XS[:, None, None] + (1.0 - lam) * _REF_XS[None, :, None]
        bool(np.any(np.exp(mix) > np.exp(_REF_XS)[:, None, None] + s))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class HostReference:
    """Times a reference chunk on every tick of a wall-clock timer
    (SIGALRM; no thread), so the samples spread evenly over the requests
    they interrupt.  ``spent`` is the time taken by the ticks, which the
    request latencies leave out."""

    def __init__(self):
        self.chunks: list[float] = []
        self.spent = 0.0
        self.running = False
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.chunks.append(reference_chunk())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False


REFERENCE = HostReference()


class _Pass:
    """Collects one pass: request latencies (less the reference ticks that
    fell inside them), failures, the reference chunks timed during the pass,
    and the pass's identity."""

    def __init__(self):
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self._first_chunk = len(REFERENCE.chunks)

    def request(self, call):
        """Time one request; an exception is recorded, not propagated, so
        the loop keeps running and the run reports the failure."""
        spent = REFERENCE.spent
        t0 = time.perf_counter()
        try:
            return call()
        except Exception:  # noqa: BLE001 - counted as a failed operation
            self.errors.append(traceback.format_exc())
            return None
        finally:
            self.latencies.append(time.perf_counter() - t0 - (REFERENCE.spent - spent))

    def timings(self) -> dict:
        """The pass's times; ``reference_s`` is the mean reference chunk
        during the pass (None when the timer is off, as in traced passes)."""
        chunks = REFERENCE.chunks[self._first_chunk:]
        if REFERENCE.running and not chunks:  # a pass shorter than one tick
            chunks = [reference_chunk()]
        return {
            "wall_s": sum(self.latencies),
            "latencies": self.latencies,
            "errors": self.errors,
            "reference_s": sum(chunks) / len(chunks) if chunks else None,
        }


class VerifyDense:
    """The campaign's intervals are drawn by the CLI from its ``--seed``,
    and its work moves by about 7% with that seed (how many verdicts the
    exact and 50-digit paths confirm), while a run holds only three or four
    passes.  So each timed pass runs the next seed of a sequence derived
    from the workload seed, and the run's median spans several inputs; the
    warm-up runs the first seed too, so that report is made twice and must
    hash the same."""

    name = "verify-dense"

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.report = workdir / "verify-dense.json"
        self.trials = size["dense_trials"]
        self.seeds = search_seeds(seed, 64)
        self.calls = 0

    def run_pass(self) -> dict:
        from hhbounds import cli

        seed = self.seeds[max(0, self.calls - 1) % len(self.seeds)]
        self.calls += 1
        argv = [
            "verify", "--claims", "all", "--functions", "all",
            "--trials", str(self.trials), "--seed", str(seed),
            "--out", str(self.report),
        ]
        p = _Pass()
        if self.report.exists():
            self.report.unlink()

        def call():
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        rc = p.request(call)
        data = self.report.read_bytes() if self.report.exists() else b""
        return {
            **p.timings(),
            "seed": seed,
            "exit_code": rc,
            "sha256": _sha256(data),
            "report_bytes": len(data),
        }


class VerifyNonpoly:
    name = "verify-nonpoly"

    def __init__(self, seed: int, size: dict, workdir: Path):
        from hhbounds import harness

        self.seed = seed
        self.report = workdir / "verify-nonpoly.csv"
        self.summary = workdir / "verify-nonpoly.summary.json"
        self.config = harness.CampaignConfig(
            claims=("all",),
            functions=NONPOLY_FUNCTIONS,
            intervals=tuple(nonpoly_intervals(seed, size["nonpoly_intervals"])),
            seed=seed,
        )

    def run_pass(self) -> dict:
        from hhbounds import cli, harness

        p = _Pass()
        for path in (self.report, self.summary):
            if path.exists():
                path.unlink()

        def call():
            result = harness.run_campaign(self.config)
            with open(self.report, "w") as fh:
                fh.write(cli.to_csv(result.records))
            return result

        result = p.request(call)
        if result is not None:
            self.summary.write_text(json.dumps(result.summary))
        data = self.report.read_bytes() if self.report.exists() else b""
        return {
            **p.timings(),
            "seed": self.seed,
            "sha256": _sha256(data),
            "report_bytes": len(data),
        }


class Search:
    name = "search"

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.trials = size["search_trials"]
        self.seeds = search_seeds(seed, size["search_seeds"])

    def run_pass(self) -> dict:
        from hhbounds import harness

        p = _Pass()
        outcomes = []
        for claim_id in harness.claim_ids():
            for s in self.seeds:
                config = harness.CampaignConfig(functions=("all",), trials=self.trials, seed=s)
                out = p.request(lambda: harness.find_counterexample(claim_id, config))
                outcomes.append({
                    "claim": claim_id,
                    "seed": s,
                    "trials": None if out is None else out.trials,
                    "record": None if out is None or out.record is None else out.record.as_dict(),
                })
        data = json.dumps(outcomes).encode()
        return {
            **p.timings(),
            "seed": self.seed,
            "sha256": _sha256(data),
            "trials": sum(o["trials"] or 0 for o in outcomes),
            "outcomes": outcomes,
            "report_bytes": 0,
        }


WORKLOADS = {w.name: w for w in (VerifyDense, VerifyNonpoly, Search)}
