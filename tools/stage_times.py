"""Print the median time per operation of each stage of ``epr analyze`` and ``epr sample`` on the benchmark's files.

The files are the scenario files that ``perfbench/workloads.py`` writes
at seed 0, generated into a temporary directory that is removed on exit.
Each pass runs every operation through the stages its command runs, in
process and one after the other.

``epr analyze`` runs the ``analyze_large`` operations (N = 5..8, equally
spaced and generic A):

* parse - ``io.scenario_from_json`` of the file's text;
* analysis - ``sc.analysis``, the scenario's ``lab.run_epr_analysis``;
* payload - ``io.run_report``, the report ``epr analyze`` composes;
* emit - ``io.emit_json`` of that payload.

``epr sample`` runs the ``cli_small`` sample operations (10,000 shots on
the bundled files and on N = 2..4, equally spaced and generic A), where
per-call costs show, and then the ``sample_heavy`` operations (2,000,000
shots, twice on each bundled file), where the sample stage's kernel
dominates, each with its operation's shots and seed:

* parse - ``io.scenario_from_json`` of the file's text;
* chain tables - ``sc.chain_tables``, which runs the analysis first;
* sample - ``lab.sample_chain``;
* compare - ``lab.compare_empirical`` of the shot record;
* payload - ``io.run_report`` around ``io.sampling_to_payload`` of the record and its comparison;
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

SEED = 0
PASSES = 30


def analyze_stages(text: str, shots: int, seed: int):
    """Run ``epr analyze``'s stages on ``text``, yielding after each one."""
    sc = io.scenario_from_json(text)
    yield
    sc.analysis  # cached on the scenario, where io.run_report reads it
    yield
    payload = io.run_report(sc, None, __version__)
    yield
    io.emit_json(payload)
    yield


def sample_stages(text: str, shots: int, seed: int):
    """Run ``epr sample``'s stages on ``text`` with ``shots`` and ``seed``, yielding after each one."""
    sc = io.scenario_from_json(text)
    yield
    sc.chain_tables  # cached on the scenario, where sample_chain and compare_empirical read it
    yield
    record = lab.sample_chain(sc, shots, seed)
    yield
    comparison = lab.compare_empirical(record, sc)
    yield
    payload = io.run_report(sc, io.sampling_to_payload(record, comparison), __version__)
    yield
    io.emit_json(payload)
    yield


SAMPLE_STAGES = ("parse", "chain tables", "sample", "compare", "payload", "emit")
COMMANDS = (
    ("analyze", "analyze_large", analyze_stages, ("parse", "analysis", "payload", "emit")),
    ("sample", "cli_small", sample_stages, SAMPLE_STAGES),
    ("sample", "sample_heavy", sample_stages, SAMPLE_STAGES),
)


def one_pass(stages, ops: list[tuple[str, int, int]]) -> list[float]:
    """Seconds each stage took over one run of every operation, divided by the number of operations."""
    spent = []
    for op in ops:
        times = [time.perf_counter()]
        times += [time.perf_counter() for _ in stages(*op)]
        spent.append([b - a for a, b in zip(times, times[1:])])
    return [sum(stage) / len(ops) for stage in zip(*spent)]


def main() -> None:
    scenario_dir = ROOT / "src" / "eprkit" / "scenarios"
    for kind, workload, stages, names in COMMANDS:
        with tempfile.TemporaryDirectory() as work:
            ops = [
                (op.scenario.read_text(encoding="utf-8"), op.shots, op.sample_seed)
                for op in workloads.build(workload, SEED, Path(work), scenario_dir)
                if op.kind == kind
            ]
        one_pass(stages, ops)  # warm-up: imports, caches and first-call costs
        passes = [one_pass(stages, ops) for _ in range(PASSES)]
        print(f"epr {kind} stages, {workload} seed {SEED}: {len(ops)} operations, median of {PASSES} passes, ms per operation")
        total = 0.0
        for i, name in enumerate(names):
            ms = statistics.median(p[i] for p in passes) * 1e3
            total += ms
            print(f"  {name:<13}{ms:8.3f}")
        print(f"  {'sum':<13}{total:8.3f}")


if __name__ == "__main__":
    main()
