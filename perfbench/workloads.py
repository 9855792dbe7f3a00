"""Workload inputs: seeded scenario files and the operation list of each workload.

An operation is one ``epr`` command line. A workload is a fixed list of
operations (one *pass*); the benchmark repeats whole passes, so every
operation of a pass runs equally often and counts per operation repeat
exactly. The seed only changes the random matrices, states and sample
seeds, never the mix of operations or the input sizes, so figures from
different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze_large", "sample_heavy", "cli_small")
BUNDLED = ("pauli_epr", "pauli_uniform", "spin_one")
DEFAULT_SEED = 0

SAMPLE_HEAVY_SHOTS = 2_000_000
CLI_SMALL_SHOTS = 10_000
PREFLIGHT_SHOTS = 10_000


@dataclass(frozen=True)
class Op:
    """One ``epr`` invocation and what the correctness gate needs to know about it."""

    kind: str  # "verify", "analyze" or "sample"
    scenario: Path
    shots: int = 0
    sample_seed: int = 0

    @property
    def argv(self) -> list[str]:
        argv = [self.kind, str(self.scenario)]
        if self.kind == "sample":
            argv += ["--shots", str(self.shots), "--seed", str(self.sample_seed)]
        return argv

    @property
    def name(self) -> str:
        """Scenario and command, for per-operation breakdowns."""
        return f"{self.kind} {self.scenario.stem}"

    @property
    def golden_key(self) -> str:
        """Identifies a sample operation by its inputs, independent of where the file lives."""
        digest = hashlib.sha256(self.scenario.read_bytes()).hexdigest()[:16]
        return f"{self.scenario.stem}|{digest}|{self.shots}|{self.sample_seed}"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix(m: np.ndarray) -> list:
    return [[_pair(z) for z in row] for row in m]


def _spectrum(rng: np.random.Generator, n: int, equal: bool) -> np.ndarray:
    """Equally spaced (2N-1 sums) or generic (N(N+1)/2 sums, degeneracy at most 2)."""
    if equal:
        return (np.arange(n) - (n - 1) / 2) * rng.uniform(0.5, 1.5)
    while True:
        lam = np.sort(rng.uniform(-n, n, n))
        sums = np.sort(np.add.outer(lam, lam)[np.triu_indices(n)])
        # keep distinct sums far above the package's grouping tolerance
        if np.diff(lam).min() > 0.05 and np.diff(sums).min() > 1e-3:
            return lam


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def scenario_payload(rng: np.random.Generator, n: int, equal: bool, label: str) -> dict:
    """A = U diag(lambda) U^H with random U, random Hermitian B, random state; C is derived."""
    u = _random_unitary(rng, n)
    a = u @ np.diag(_spectrum(rng, n, equal)) @ u.conj().T
    a = (a + a.conj().T) / 2
    b = _random_hermitian(rng, n)
    psi = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    psi /= np.linalg.norm(psi)
    return {
        "schema_version": 1,
        "label": label,
        "factor_dim": n,
        "matrix_a": _matrix(a),
        "matrix_b": _matrix(b),
        "alpha": 1.0,
        "state": [_pair(z) for z in psi],
    }


def _generate(rng: np.random.Generator, work_dir: Path, sizes) -> list[Path]:
    paths = []
    for n in sizes:
        for equal in (True, False):
            name = f"n{n}-{'equal' if equal else 'generic'}"
            path = work_dir / f"{name}.json"
            path.write_text(json.dumps(scenario_payload(rng, n, equal, name)), encoding="utf-8")
            paths.append(path)
    return paths


def _sample_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def build(workload: str, seed: int, work_dir: Path, scenario_dir: Path) -> list[Op]:
    """Write the workload's scenario files into work_dir and return one pass of operations.

    The first operation of a pass is the same kind on every seed; it is the
    cold operation that set-up time measures.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    bundled = [scenario_dir / f"{name}.json" for name in BUNDLED]
    if workload == "analyze_large":
        return [Op("analyze", path) for path in _generate(rng, work_dir, range(5, 9))]
    if workload == "sample_heavy":
        return [
            Op("sample", path, SAMPLE_HEAVY_SHOTS, _sample_seed(rng))
            for path in bundled
            for _ in range(2)
        ]
    if workload == "cli_small":
        ops = []
        for path in bundled + _generate(rng, work_dir, range(2, 5)):
            ops += [
                Op("verify", path),
                Op("analyze", path),
                Op("sample", path, CLI_SMALL_SHOTS, _sample_seed(rng)),
            ]
        first = ops.pop(1)  # analyze pauli_epr, the worked example
        return [first] + [ops[i] for i in rng.permutation(len(ops))]
    raise ValueError(f"unknown workload {workload!r}")


def preflight_ops(scenario_dir: Path) -> list[Op]:
    """Seed-independent operations whose outputs are compared with golden copies on every run."""
    ops = []
    for name in BUNDLED:
        path = scenario_dir / f"{name}.json"
        ops += [Op("analyze", path), Op("sample", path, PREFLIGHT_SHOTS, DEFAULT_SEED)]
    return ops
