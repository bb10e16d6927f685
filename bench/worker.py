"""Child process of the benchmark: runs one workload's passes and writes the
measurements as JSON.

Usage: python3 bench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds workload, seed, seconds, min_passes, trace, size and workdir.
The first pass is a warm-up: its outputs are checked like the others', but
it is reported apart and not timed, since it alone pays for growing the heap
and first-use set-up (about 5% of a verify-dense pass).  Timed passes repeat
until ``seconds`` (warm-up included) have elapsed and at least
``min_passes`` ran.
Without ``trace``, the host-speed reference timer runs through the passes
(see workloads.HostReference).  With ``trace`` set, the layer functions are
wrapped instead (see tracer.py) and each pass's per-layer numbers are
recorded; the spans of the last pass are written to
``<workdir>/<workload>.spans.tsv``.  The process's own peak RSS is
reported, so it belongs to this workload alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads


def run(spec: dict) -> dict:
    import hhbounds.cli  # noqa: F401 - loads every layer before tracing

    workdir = Path(spec["workdir"])
    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], workloads.SIZES[spec["size"]], workdir
    )
    spans = tracer.Tracer() if spec["trace"] else None
    if spans is not None:
        spans.install()
    else:
        workloads.REFERENCE.start()

    # A pass starts only if, taking as long as the previous one, it would end
    # inside the window; so a run's length does not depend on where the last
    # pass happens to fall.
    passes, layers = [], []
    start, previous = time.perf_counter(), 0.0
    try:
        warmup = workload.run_pass()
        while len(passes) < spec["min_passes"] or time.perf_counter() - start + previous <= spec["seconds"]:
            t0 = time.perf_counter()
            if spans is not None:
                spans.reset()
            passes.append(workload.run_pass())
            if spans is not None:
                layers.append(spans.layer_metrics())
            previous = time.perf_counter() - t0
    finally:
        if spans is not None:
            spans.uninstall()
        else:
            workloads.REFERENCE.stop()

    if spans is not None:
        spans.write_spans(workdir / f"{spec['workload']}.spans.tsv")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"warmup": warmup, "passes": passes, "layers": layers, "peak_rss_mb": peak_kb / 1024.0}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
