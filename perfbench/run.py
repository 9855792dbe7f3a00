"""eprkit benchmark: closed-loop ``epr`` workloads with a correctness gate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_large --seed 0 --seconds 30 --trace 0

One client in one process sends one operation at a time, an in-process
``eprkit.cli.main([...])`` call, and sends the next only after the previous
returned and its output was checked. Workloads (see workloads.py):

* analyze_large - ``epr analyze`` at N = 5..8: the dense N^2 x N^2 path.
* sample_heavy  - ``epr sample --shots 2000000`` on the bundled scenarios: the kernel.
* cli_small     - a seeded mix of verify / analyze / sample on N <= 4: per-call overhead.

With ``--trace 0`` the run reports the end-to-end metrics:

* setup_s - a fresh process importing ``eprkit.cli`` and running the
  first operation of a pass; median of SETUP_REPEATS processes.
* ops_per_s - operations per second of operation time over the run.
* latency_p50_ms - median over the operations of a pass of each one's
  median time over the run's passes. The plain median of every time
  would fall in the gap between two sizes of scenario and jump with noise.
* peak_rss_mb - peak resident memory of this process (MB = 2^20 bytes).

The three times are expressed at a fixed machine speed (speed.py): each
operation's or start's wall time is multiplied by REF_PROBE_S over the
mean time of the speed probes run just before and just after it. On a
shared host neighbours slow this process by up to half, in bursts that
fill more of some minutes than others, which moves plain wall-time
figures by 15-30% between runs of the same code; the probe slows down
with them. The probe does not use eprkit, so a faster or slower eprkit
moves these figures as it moves wall time.

Wall-time throughput, latency median and p90, shots per second, the
probe's slowdown and the failed fraction are printed as well, without a
bound. With
``--trace 1`` the run wraps each layer's public functions from outside
(tracing.py), reports per-operation counts and self times per layer,
times every sampling backend on the same tables, and reports the tracing
overhead against untraced passes of the same operations.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits 2
without a result when the checkout has no ``src/eprkit``.
"""

import os

# numpy links a multithreaded BLAS; pin it to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
# Latency percentiles are reported only with at least 10 samples beyond them.
MIN_SAMPLES_P90 = 100
# Share of a traced run spent on the untraced pass that the overhead is measured against.
UNTRACED_SHARE = 0.25
# Speed probes run after the operations of every PROBE_EVERY_S seconds; a
# probe point is the mean of PROBES_PER_POINT probes, or of
# PROBES_PER_SETUP_POINT around a fresh process, which samples the load
# less often.
PROBE_EVERY_S = 0.1
PROBES_PER_POINT = 2
PROBES_PER_SETUP_POINT = 4
PROBE_WARMUP = 20
# Probe time the figures are expressed at: about the probe's time on an
# Intel Xeon host of 2 vCPUs with numpy 2.4 and one OpenBLAS thread, in a
# quiet minute. Any constant would do; figures scale with it.
REF_PROBE_S = 5e-3


@dataclass
class Phase:
    """Measurements of consecutive whole passes over a workload's operations."""

    ops_per_pass: int
    latencies: list = field(default_factory=list)  # seconds, in run order
    passes: list = field(default_factory=list)  # seconds of operation time per pass
    failures: list = field(default_factory=list)
    shots: int = 0
    sample_seconds: float = 0.0
    per_op_counts: dict = field(default_factory=dict)
    pass_counts: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # seconds of each probe point
    probe_before: list = field(default_factory=list)  # index of the probe point before each operation

    @property
    def ops_per_s(self) -> float:
        """Operations per second of operation time, over every pass."""
        return len(self.latencies) / sum(self.passes)

    def scaled_seconds(self) -> list[float]:
        """Each operation's time at the reference speed, by the probe points around it."""
        last = len(self.probes) - 1
        return [
            t * 2 * REF_PROBE_S / (self.probes[k] + self.probes[min(k + 1, last)])
            for t, k in zip(self.latencies, self.probe_before)
        ]

    @property
    def slowdown(self) -> float:
        """Mean probe point time over the reference probe time."""
        return statistics.mean(self.probes) / REF_PROBE_S


def execute(cli, op):
    """One closed-loop operation; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def probe_point(probes: int = PROBES_PER_POINT) -> float:
    return statistics.mean(probe() for _ in range(probes))


def run_phase(cli, ops, checker, seconds: float, min_passes: int = 1, tracer=None, probing=False) -> Phase:
    """Repeat whole passes until the operations have taken ``seconds``, probing speed between them if asked."""
    phase = Phase(len(ops))
    if probing:
        warm_up_probe()
        phase.probes.append(probe_point())
    since_probe = 0.0
    while len(phase.passes) < min_passes or sum(phase.passes) < seconds:
        pass_start = tracer.snapshot() if tracer else None
        pass_seconds = 0.0
        for op in ops:
            before = tracer.snapshot() if tracer else None
            if probing:
                phase.probe_before.append(len(phase.probes) - 1)
            rc, out, err, elapsed = execute(cli, op)
            since_probe += elapsed
            if probing and since_probe >= PROBE_EVERY_S:
                phase.probes.append(probe_point())
                since_probe = 0.0
            if tracer:
                tracer.end_op()
                phase.per_op_counts.setdefault(op.name, _delta(tracer.snapshot(), before))
            pass_seconds += elapsed
            phase.latencies.append(elapsed)
            if op.kind == "sample":
                phase.shots += op.shots
                phase.sample_seconds += elapsed
            problems = checker.check(op, rc, out, err)
            if problems:
                phase.failures.append(f"{' '.join(op.argv)}: {problems[0]}")
        phase.passes.append(pass_seconds)
        if tracer:
            phase.pass_counts.append(_delta(tracer.snapshot(), pass_start))
    if probing and since_probe:
        phase.probes.append(probe_point())
    return phase


def warm_up_probe() -> None:
    for _ in range(PROBE_WARMUP):
        probe()


def cold_starts(op, expected_digest: str) -> tuple[list[float], list[float], list[str]]:
    """Seconds of SETUP_REPEATS fresh processes running ``op``, after one discarded warm-up start.

    Returns each start's time scaled to the reference speed by the probe
    points run just before and just after it, as operation times are, and
    its wall time. Each start must exit 0 with the output the in-process
    run of ``op`` gave.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "cold_start.py"), *op.argv]
    scaled, wall, problems = [], [], []
    warm_up_probe()
    after = probe_point(PROBES_PER_SETUP_POINT)
    for i in range(SETUP_REPEATS + 1):  # the first start warms the page cache
        before = after
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"rc": proc.returncode}
        after = probe_point(PROBES_PER_SETUP_POINT)
        if record["rc"] != 0 or record["sha256"] != expected_digest:
            problems.append(f"cold start of {' '.join(op.argv)}: exit {record['rc']} {proc.stderr.strip()[-300:]}")
        elif i:
            scaled.append(record["seconds"] * 2 * REF_PROBE_S / (before + after))
            wall.append(record["seconds"])
    return scaled, wall, problems


def environment() -> str:
    import numpy as np
    from eprkit import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"env backend={_kernels.ACTIVE_BACKEND} numpy={np.__version__} "
        f"blas={blas.get('name', 'unknown')}-{blas.get('version', '?')} python={platform.python_version()} "
        f"nproc={os.cpu_count()} cpu={cpu!r} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit}{('  ' + note) if note else ''}")


def end_to_end(phase: Phase, setup: list[float], setup_wall: list[float]) -> dict[str, tuple[float, str]]:
    scaled = phase.scaled_seconds()
    n, k = len(phase.latencies), phase.ops_per_pass
    metrics = {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(statistics.median(scaled[i::k]) for i in range(k)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    at_ref = f"at a probe time of {REF_PROBE_S * 1e3:g} ms"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, {at_ref}",
        "ops_per_s": f"n={n}, {at_ref}",
        "latency_p50_ms": f"{k} operations x {len(phase.passes)} passes, {at_ref}",
    }
    print("end-to-end (tracing off):")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit, notes.get(name, ""))
    print("  unbounded, wall time over every operation run:")
    _print_metric("setup_s (wall)", statistics.median(setup_wall) if setup_wall else 0.0, "s", f"median of {len(setup_wall)}")
    _print_metric("probe slowdown", phase.slowdown, "x", f"mean of {len(phase.probes)} probe points over {REF_PROBE_S * 1e3:g} ms")
    _print_metric("ops_per_s (wall)", phase.ops_per_s, "1/s", f"n={n}")
    _print_metric("latency_p50_ms (wall)", statistics.median(phase.latencies) * 1e3, "ms", f"n={n}")
    if n >= MIN_SAMPLES_P90:
        p90 = statistics.quantiles(phase.latencies, n=10)[8]
        _print_metric("latency_p90_ms (wall)", p90 * 1e3, "ms", f"n={n}")
    else:
        print(f"  latency_p90_ms: not reported, {n} operations leave fewer than 10 beyond it")
    if phase.shots:
        _print_metric("shots_per_s", phase.shots / phase.sample_seconds, "1/s", "per second of sample operations")
    _print_metric("failed_frac", len(phase.failures) / n, "ratio", f"of {n}")
    return metrics


PER_OP_SHOWN = {
    "composite.sum_observable.calls",
    "linalg.tensor_product.calls",
    "linalg.eigh.calls",
    "lab.chain_distributions.calls",
    "lab.branches",
    "lab.chains",
}


def per_layer(tracer, untraced: Phase, traced: Phase, kernel_ns: dict, active: str) -> dict:
    metrics = tracer.per_op_metrics(len(traced.latencies))
    metrics["kernels.bench.python.ns_per_shot"] = (kernel_ns["python"], "ns")
    metrics["kernels.bench.active.ns_per_shot"] = (kernel_ns[active], "ns")
    metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced.ops_per_s / untraced.ops_per_s, "ratio")
    print(f"per layer (traced, per operation over {len(traced.latencies)} operations; backend label: {active}):")
    for name, (value, unit) in sorted(metrics.items()):
        _print_metric(name, value, unit)
    print("sampling backends, best of 5 at 1e6 shots on identical tables: "
          + ", ".join(f"{name} {ns:.4g} ns/shot" for name, ns in sorted(kernel_ns.items())))
    print("per-operation counts (first pass):")
    for op_name, counts in traced.per_op_counts.items():
        shown = {k: v for k, v in counts.items() if k in PER_OP_SHOWN}
        print(f"  {op_name}: " + " ".join(f"{k}={v}" for k, v in sorted(shown.items())))
    return metrics


def parse_args(argv):
    from workloads import WORKLOADS, DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eprkit" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'eprkit'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: both need the checkout's package on sys.path
    import eprkit
    import eprkit.cli as cli
    from checks import Checker, sha256
    from eprkit._kernels import ACTIVE_BACKEND
    from tracing import Tracer, compare_kernels
    from workloads import build, preflight_ops

    if not Path(eprkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: eprkit was imported from {eprkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scenario_dir = Path(eprkit.__file__).parent / "scenarios"
    print(environment())

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = build(args.workload, args.seed, work_dir, scenario_dir)
        print(f"workload {args.workload} seed={args.seed}: {len(ops)} operations per pass, closed loop, 1 client")
        checker = Checker(scenario_dir)
        problems = []
        for op in preflight_ops(scenario_dir) + ops[:1]:
            problems += [f"{' '.join(op.argv)}: {p}" for p in checker.check(op, *execute(cli, op)[:3])]

        if args.trace == 0:
            setup, setup_wall, setup_problems = cold_starts(ops[0], checker.first_digest(ops[0]))
            problems += setup_problems
            phase = run_phase(cli, ops, checker, args.seconds, probing=True)
            metrics = end_to_end(phase, setup, setup_wall)
            attempted, failures = len(phase.latencies), phase.failures
        else:
            kernel_ns, identical = compare_kernels(args.seed)
            if not identical:
                problems.append("sampling backends disagree on identical tables")
            untraced = run_phase(cli, ops, checker, args.seconds * UNTRACED_SHARE)
            tracer = Tracer()
            with tracer.installed():
                traced = run_phase(cli, ops, checker, args.seconds * (1 - UNTRACED_SHARE), min_passes=2, tracer=tracer)
            if any(counts != traced.pass_counts[0] for counts in traced.pass_counts[1:]):
                problems.append("per-pass call and byte counts differ between passes of the same operations")
            digest = sha256(json.dumps(traced.pass_counts[0], sort_keys=True))
            print(f"counts of one traced pass: sha256 {digest} (same seed, same code: same digest)")
            metrics = per_layer(tracer, untraced, traced, kernel_ns, ACTIVE_BACKEND)
            attempted = len(untraced.latencies) + len(traced.latencies)
            failures = untraced.failures + traced.failures
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()

    for line in (problems + failures)[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
