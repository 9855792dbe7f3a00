"""Print the median time per operation of each stage of ``epr analyze`` on the benchmark's files.

The files are the scenario files that ``perfbench/workloads.py`` writes
for the ``analyze_large`` workload at seed 0 (N = 5..8, equally spaced and
generic A), generated into a temporary directory that is removed on exit.
Each pass runs every file through the four stages ``epr analyze`` runs, in
process and one after the other:

* parse - ``io.scenario_from_json`` of the file's text;
* analysis - ``lab.run_epr_analysis`` of the parsed scenario;
* payload - ``io.run_report_payload`` around ``io.analysis_to_payload``;
* emit - ``io.emit_json`` of that payload.

A stage's figure is the median over the passes of its mean time per
operation, in wall milliseconds. Run from the repository root::

    python3 tools/stage_times.py

It imports ``perfbench/workloads.py`` and changes nothing under
``perfbench/``; it prints and checks nothing.
"""

from __future__ import annotations

import os

# numpy links a multithreaded BLAS; pin it to one thread before numpy loads, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from eprkit import __version__, io, lab  # noqa: E402

WORKLOAD = "analyze_large"
SEED = 0
PASSES = 30
STAGES = ("parse", "analysis", "payload", "emit")


def one_pass(texts: list[str]) -> dict[str, float]:
    """Seconds each stage took over one run of every text, divided by the number of texts."""
    spent = dict.fromkeys(STAGES, 0.0)
    for text in texts:
        start = time.perf_counter()
        sc = io.scenario_from_json(text)
        parsed = time.perf_counter()
        report = lab.run_epr_analysis(sc)
        analysed = time.perf_counter()
        payload = io.run_report_payload(sc, io.analysis_to_payload(report), None, __version__)
        built = time.perf_counter()
        io.emit_json(payload)
        emitted = time.perf_counter()
        for stage, seconds in zip(STAGES, (parsed - start, analysed - parsed, built - analysed, emitted - built)):
            spent[stage] += seconds
    return {stage: seconds / len(texts) for stage, seconds in spent.items()}


def main() -> None:
    scenario_dir = ROOT / "src" / "eprkit" / "scenarios"
    with tempfile.TemporaryDirectory() as work:
        ops = [op for op in workloads.build(WORKLOAD, SEED, Path(work), scenario_dir) if op.kind == "analyze"]
        texts = [op.scenario.read_text(encoding="utf-8") for op in ops]
    one_pass(texts)  # warm-up: imports, caches and first-call costs
    passes = [one_pass(texts) for _ in range(PASSES)]
    print(f"epr analyze stages, {WORKLOAD} seed {SEED}: {len(texts)} files, median of {PASSES} passes, ms per operation")
    total = 0.0
    for stage in STAGES:
        ms = statistics.median(p[stage] for p in passes) * 1e3
        total += ms
        print(f"  {stage:<9}{ms:8.3f}")
    print(f"  {'sum':<9}{total:8.3f}")


if __name__ == "__main__":
    main()
