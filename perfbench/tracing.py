"""Per-layer tracing from outside the package.

The package modules import names directly (``from .composite import
sum_observable``), so a wrapper has to replace the binding in every eprkit
module that holds the function, not only in the module that defines it.
``numpy.linalg.eigh`` is wrapped as ``eprkit.linalg`` calls it, through a
copy of the numpy namespace installed as ``eprkit.linalg.np``.

Each wrapped call is one span. A span's self time is its duration minus
the time of the spans it caused; spans of one operation are aggregated in
memory into per-name counters instead of being stored one by one, because
an N=8 analysis makes tens of thousands of them.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute). The span name's first part is the layer.
SPANS = {
    "cli.main": ("eprkit.cli", "main"),
    "io.scenario_from_json": ("eprkit.io", "scenario_from_json"),
    "io.analysis_to_payload": ("eprkit.io", "analysis_to_payload"),
    "io.sampling_to_payload": ("eprkit.io", "sampling_to_payload"),
    "io.emit_json": ("eprkit.io", "emit_json"),
    "lab.run_epr_analysis": ("eprkit.lab", "run_epr_analysis"),
    "lab.sample_chain": ("eprkit.lab", "sample_chain"),
    "lab.compare_empirical": ("eprkit.lab", "compare_empirical"),
    "lab.chain_distributions": ("eprkit.lab", "_chain_distributions"),
    "conditional.conditional_distribution": ("eprkit.conditional", "conditional_distribution"),
    "conditional.sequential_measure": ("eprkit.conditional", "sequential_measure"),
    "conditional.verify_theorem2": ("eprkit.conditional", "verify_theorem2"),
    "conditional.certain_prediction": ("eprkit.conditional", "certain_prediction"),
    "conditional.epr_resolution_check": ("eprkit.conditional", "epr_resolution_check"),
    "composite.sum_observable": ("eprkit.composite", "sum_observable"),
    "composite.post_measurement_state": ("eprkit.composite", "post_measurement_state"),
    "composite.lift": ("eprkit.composite", "lift"),
    "composite.schmidt_rank": ("eprkit.composite", "schmidt_rank"),
    "states.outcome_probabilities": ("eprkit.states", "outcome_probabilities"),
    "states.best_predictor": ("eprkit.states", "best_predictor"),
    "states.prediction_error": ("eprkit.states", "prediction_error"),
    "states.audit_uncertainty": ("eprkit.states", "audit_uncertainty"),
    "linalg.tensor_product": ("eprkit.linalg", "tensor_product"),
    "kernels.sample_counts": ("eprkit._kernels", "sample_counts"),
}
EIGH = "linalg.eigh"
LAYERS = ("cli", "io", "lab", "conditional", "composite", "states", "linalg", "kernels")


def kernel_bytes(shots: int, outcomes: int, levels: int) -> int:
    """Array traffic of one ``sample_counts`` call, computed from array sizes, not measured.

    Per shot: two 8-byte uniforms, the 8-byte sum and first-factor indices,
    and the gathered conditional-CDF row with its boolean comparison mask
    (9 bytes per level); plus both CDF tables and the count matrix.
    """
    return shots * (16 + 16 + 9 * levels) + 8 * outcomes * (2 * levels + 1)


class Tracer:
    """Span counters, call counts and per-operation counters of one traced phase."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.counters = Counter()
        self.max_eigh_dim = 0
        self._stack: list[list[float]] = []
        self._distinct: dict[str, set[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return span

    def distinct(self, name: str, obj) -> None:
        self._distinct.setdefault(name, set()).add(id(obj))

    def end_op(self) -> None:
        """Close one operation: distinct objects are counted per operation."""
        for name, ids in self._distinct.items():
            self.counters[f"{name}.distinct"] += len(ids)
        self._distinct = {}

    def snapshot(self) -> dict:
        """Every counter that must repeat exactly, for comparing passes and operations."""
        out = {f"{name}.calls": count for name, count in self.calls.items()}
        out.update(self.counters)
        return out

    @contextmanager
    def installed(self):
        """Replace every binding of every traced function in the loaded eprkit modules."""
        modules = [m for name, m in list(sys.modules.items()) if name == "eprkit" or name.startswith("eprkit.")]
        try:
            for name, (module, attr) in SPANS.items():
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, key, value))
                            setattr(m, key, wrapper)
            linalg = importlib.import_module("eprkit.linalg")
            traced_np = types.ModuleType("numpy")
            traced_np.__dict__.update(np.__dict__)
            traced_np.linalg = types.ModuleType("numpy.linalg")
            traced_np.linalg.__dict__.update(np.linalg.__dict__)
            traced_np.linalg.eigh = self._wrap(EIGH, np.linalg.eigh)
            self._restore.append((linalg, "np", linalg.np))
            linalg.np = traced_np
            yield self
        finally:
            for m, key, value in reversed(self._restore):
                setattr(m, key, value)
            self._restore = []

    def per_op_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value per operation, unit)."""
        metrics: dict[str, tuple[float, str]] = {}
        for name in list(SPANS) + [EIGH]:
            metrics[f"{name}.calls"] = (self.calls[name] / ops, "count")
            metrics[f"{name}.self_ms"] = (self.self_s[name] * 1e3 / ops, "ms")
        for layer in LAYERS:
            errors = sum(count for name, count in self.errors.items() if name.split(".")[0] == layer)
            metrics[f"{layer}.errors"] = (errors / ops, "count")
        for name in ("composite.sum_observable", "lab.chain_distributions"):
            calls = self.calls[name]
            metrics[f"{name}.useful_ratio"] = (self.counters[f"{name}.distinct"] / calls if calls else 0.0, "ratio")
        metrics["io.emit_json.bytes"] = (self.counters["io.emit_json.bytes"] / ops, "B")
        metrics["lab.branches"] = (self.counters["lab.branches"] / ops, "count")
        metrics["lab.chains"] = (self.counters["lab.chains"] / ops, "count")
        metrics["linalg.eigh.max_dim"] = (float(self.max_eigh_dim), "count")
        shots = self.counters["kernels.sample_counts.shots"]
        metrics["kernels.sample_counts.shots"] = (shots / ops, "count")
        metrics["kernels.sample_counts.ns_per_shot"] = (
            self.self_s["kernels.sample_counts"] * 1e9 / shots if shots else 0.0,
            "ns",
        )
        metrics["kernels.sample_counts.computed_bytes"] = (
            self.counters["kernels.sample_counts.computed_bytes"] / ops,
            "B",
        )
        return metrics


def _on_analysis(tracer: Tracer, args, report) -> None:
    tracer.counters["lab.branches"] += len(report.per_sum)
    tracer.counters["lab.chains"] += len(report.chains)


def _on_kernel(tracer: Tracer, args, counts) -> None:
    shots, sum_cdf, cond_cdf = args[1], args[2], args[3]
    tracer.counters["kernels.sample_counts.shots"] += int(shots)
    tracer.counters["kernels.sample_counts.computed_bytes"] += kernel_bytes(
        int(shots), len(sum_cdf), cond_cdf.shape[1]
    )


def _on_eigh(tracer: Tracer, args, result) -> None:
    tracer.max_eigh_dim = max(tracer.max_eigh_dim, int(np.shape(args[0])[0]))


_HOOKS = {
    "lab.run_epr_analysis": _on_analysis,
    "lab.chain_distributions": lambda t, args, _: t.distinct("lab.chain_distributions", args[0]),
    "composite.sum_observable": lambda t, args, _: t.distinct("composite.sum_observable", args[0]),
    "io.emit_json": lambda t, args, text: t.counters.update({"io.emit_json.bytes": len(text.encode("utf-8"))}),
    "kernels.sample_counts": _on_kernel,
    EIGH: _on_eigh,
}


def compare_kernels(seed: int, shots: int = 1_000_000, repeats: int = 5) -> tuple[dict[str, float], bool]:
    """Best-of-k ns per shot for every importable backend on the same CDF tables.

    Returns the timings and whether all backends' counts are bit-identical.
    The tables are shaped like a 4-level factor with 5 sum outcomes.
    """
    from eprkit._kernels import backends

    rng = np.random.default_rng(seed)
    p = rng.random(5)
    sum_cdf = np.cumsum(p / p.sum())
    sum_cdf[-1] = 1.0
    cond = rng.random((5, 4))
    cond_cdf = np.cumsum(cond / cond.sum(axis=1, keepdims=True), axis=1)
    cond_cdf[:, -1] = 1.0

    timings, counts = {}, []
    for name, kernel in sorted(backends().items()):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = kernel(7, shots, sum_cdf, cond_cdf)
            best = min(best, time.perf_counter() - start)
        timings[name] = best * 1e9 / shots
        counts.append(result)
    identical = all(np.array_equal(counts[0], other) for other in counts[1:])
    return timings, identical
