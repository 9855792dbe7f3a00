"""Per-operation correctness gate.

Every output is checked once: exit code, a strict re-parse of the report,
the paper's residuals against the package's stated tolerances, and branch
and chain probabilities against an oracle computed here with plain numpy
from the N x N coefficient matrix C = V^H Psi conj(V). The oracle uses no
package code, so the check stays independent of the route the package
takes. A repeated operation must reproduce its first output byte for
byte; bundled ``analyze`` reports and seeded sample counts must match the
golden copies in ``golden/``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eprkit import io as epr_io
from eprkit.errors import ScenarioFormatError

# Residual tolerance the package's tests state for random scenarios
# (mean identity, stdev gap, a2 stdev); scaled by the spectrum radius.
RESIDUAL_TOL = 1e-10
# The package's COMMUTATION_TOL; bounds every residual ``epr verify`` prints.
VERIFY_TOL = 1e-8
# Agreement between the report and the oracle.
ORACLE_TOL = 1e-9
# The package's ZERO_PROB_THRESHOLD: outcomes below it carry no branch.
ZERO_PROB = 1e-12
# Sampled path frequencies must lie within this many standard deviations.
SAMPLE_SIGMAS = 6.0

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_COUNTS = GOLDEN_DIR / "sample_counts.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counts_digest(report: dict) -> str:
    return sha256(json.dumps(report["sampling"]["counts"], sort_keys=True))


def golden_analyze_path(stem: str) -> Path:
    return GOLDEN_DIR / f"analyze-{stem}.json"


@dataclass(frozen=True)
class Oracle:
    """Joint outcome table of A(1), A(2) and its anti-diagonal grouping."""

    eigenvalues: np.ndarray  # ascending
    q: np.ndarray  # q[n, m] = |C[n, m]|^2
    sums: tuple[float, ...]
    members: tuple[tuple[tuple[int, int], ...], ...]
    scale: float

    @classmethod
    def from_file(cls, path: Path) -> "Oracle":
        data = json.loads(path.read_text(encoding="utf-8"))
        n = data["factor_dim"]
        a = np.array([[complex(*z) for z in row] for row in data["matrix_a"]])
        psi = np.array([complex(*z) for z in data["state"]])
        psi = psi / np.linalg.norm(psi)
        lam, v = np.linalg.eigh(a)
        coeff = v.conj().T @ psi.reshape(n, n) @ v.conj()
        q = np.abs(coeff) ** 2
        pair = np.add.outer(lam, lam).ravel()
        order = np.argsort(pair, kind="stable")
        tol = ORACLE_TOL * max(1.0, float(np.abs(pair).max()))
        groups: list[list[int]] = []
        for idx in order:
            if groups and pair[idx] - pair[groups[-1][-1]] <= tol:
                groups[-1].append(idx)
            else:
                groups.append([idx])
        return cls(
            eigenvalues=lam,
            q=q,
            sums=tuple(float(np.mean(pair[g])) for g in groups),
            members=tuple(tuple(divmod(int(i), n) for i in g) for g in groups),
            scale=max(1.0, float(np.abs(lam).max())),
        )

    def probability(self, k: int) -> float:
        return float(sum(self.q[n, m] for n, m in self.members[k]))

    def sum_index(self, s: float) -> int | None:
        k = int(np.argmin(np.abs(np.array(self.sums) - s)))
        return k if abs(self.sums[k] - s) <= ORACLE_TOL * 2 * self.scale else None

    def factor_index(self, a: float) -> int | None:
        n = int(np.argmin(np.abs(self.eigenvalues - a)))
        return n if abs(self.eigenvalues[n] - a) <= ORACLE_TOL * self.scale else None


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def check_verify(text: str, oracle: Oracle) -> list[str]:
    lines = text.strip().splitlines()
    if not lines or lines[-1] != "all invariants satisfied":
        return ["verify did not report all invariants satisfied"]
    problems = []
    for line in lines[1:-1]:
        label, _, value = line.rpartition(":")
        if "residual" not in label and "<a|C|a>" not in label:
            continue
        if not float(value) <= VERIFY_TOL * oracle.scale:
            problems.append(f"verify residual too large: {line.strip()}")
    return problems


def check_analysis(analysis: dict, oracle: Oracle) -> list[str]:
    problems = []
    tol = RESIDUAL_TOL * oracle.scale
    spectrum = analysis["sum_spectrum"]
    if len(spectrum) != len(oracle.sums):
        return [f"{len(spectrum)} sum outcomes, oracle has {len(oracle.sums)}"]
    for k, entry in enumerate(spectrum):
        if not _close(entry["value"], oracle.sums[k], ORACLE_TOL * oracle.scale):
            problems.append(f"sum outcome {entry['value']} != oracle {oracle.sums[k]}")
        if not _close(entry["probability"], oracle.probability(k), ORACLE_TOL):
            problems.append(f"p(s={entry['value']}) = {entry['probability']} != oracle {oracle.probability(k)}")

    populated = [k for k in range(len(oracle.sums)) if oracle.probability(k) >= ZERO_PROB]
    if len(analysis["per_sum"]) != len(populated):
        problems.append(f"{len(analysis['per_sum'])} branches, oracle has {len(populated)}")
    lam = oracle.eigenvalues
    for key, branch in analysis["per_sum"].items():
        k = oracle.sum_index(float(key))
        if k is None:
            problems.append(f"branch s={key} is not an oracle sum outcome")
            continue
        p = oracle.probability(k)
        a1_mean = sum(lam[n] * oracle.q[n, m] for n, m in oracle.members[k]) / p
        if not _close(branch["probability"], p, ORACLE_TOL):
            problems.append(f"branch s={key}: probability {branch['probability']} != oracle {p}")
        if not _close(branch["a1"]["mean"], a1_mean, ORACLE_TOL * oracle.scale):
            problems.append(f"branch s={key}: A(1) mean {branch['a1']['mean']} != oracle {a1_mean}")
        residuals = branch["sum_constraint"]
        if not (residuals["mean_identity_residual"] <= tol and residuals["stdev_gap"] <= tol):
            problems.append(f"branch s={key}: sum constraint residuals {residuals}")
        if not (branch["audit_slot1"]["satisfied"] and branch["audit_slot2"]["satisfied"]):
            problems.append(f"branch s={key}: uncertainty audit not satisfied")

    expected_chains = 0
    for k in populated:
        expected_chains += sum(oracle.q[n, m] / oracle.probability(k) >= ZERO_PROB for n, m in oracle.members[k])
    if len(analysis["chains"]) != expected_chains:
        problems.append(f"{len(analysis['chains'])} chains, oracle has {expected_chains}")
    for key, chain in analysis["chains"].items():
        s_text, a1_text = key.split(",")
        k, n = oracle.sum_index(float(s_text)), oracle.factor_index(float(a1_text))
        pair = None if k is None or n is None else next((nm for nm in oracle.members[k] if nm[0] == n), None)
        if pair is None:
            problems.append(f"chain {key} is not an oracle outcome pair")
            continue
        m = pair[1]
        if not _close(chain["conditional_probability"], oracle.q[n, m] / oracle.probability(k), ORACLE_TOL):
            problems.append(f"chain {key}: conditional probability {chain['conditional_probability']}")
        if not _close(chain["a2_predicted"], lam[m], ORACLE_TOL * oracle.scale):
            problems.append(f"chain {key}: A(2) prediction {chain['a2_predicted']} != {lam[m]}")
        if not (chain["a2_stdev"] <= tol and chain["point_mass_residual"] <= RESIDUAL_TOL):
            problems.append(f"chain {key}: a2_stdev {chain['a2_stdev']}, point mass {chain['point_mass_residual']}")
        if not chain["resolution"]["satisfied"]:
            problems.append(f"chain {key}: uncertainty audit not satisfied")
    return problems


def check_sampling(sampling: dict, oracle: Oracle, shots: int, seed: int) -> list[str]:
    problems = []
    if sampling["shots"] != shots or sampling["seed"] != seed:
        problems.append(f"report echoes shots={sampling['shots']} seed={sampling['seed']}")
    total = sum(sampling["counts"].values())
    if total != shots:
        problems.append(f"counts sum to {total}, not {shots}")
    for key, count in sampling["counts"].items():
        s, a1, a2 = (float(x) for x in key.split(","))
        k, n, m = oracle.sum_index(s), oracle.factor_index(a1), oracle.factor_index(a2)
        if k is None or n is None or m is None or (n, m) not in oracle.members[k] or oracle.q[n, m] < ZERO_PROB:
            problems.append(f"impossible path {key} sampled {count} times")
            continue
        p = oracle.q[n, m]
        bound = SAMPLE_SIGMAS * math.sqrt(p * (1.0 - p) / shots) + 1.0 / shots
        if abs(count / shots - p) > bound:
            problems.append(f"path {key}: frequency {count / shots} vs probability {p}")
    return problems


class Checker:
    """Validates each distinct output once and remembers the verdict."""

    def __init__(self, scenario_dir: Path, golden: bool = True):
        self.scenario_dir = scenario_dir
        self.golden = golden
        self.golden_counts = json.loads(GOLDEN_COUNTS.read_text(encoding="utf-8")) if golden else {}
        self._oracles: dict[Path, Oracle] = {}
        self._first: dict[tuple[str, ...], str] = {}
        self._verdicts: dict[tuple[tuple[str, ...], str], list[str]] = {}

    def check(self, op, rc, stdout: str, stderr: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-300:]}"]
        key = tuple(op.argv)
        digest = sha256(stdout)
        problems = []
        first = self._first.setdefault(key, digest)
        if first != digest:
            problems.append("output differs from the first run of the same operation")
        verdict = self._verdicts.get((key, digest))
        if verdict is None:
            try:
                verdict = self._validate(op, stdout)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                verdict = [f"output does not have the expected form: {exc!r}"]
            self._verdicts[(key, digest)] = verdict
        return problems + verdict

    def first_digest(self, op) -> str | None:
        return self._first.get(tuple(op.argv))

    def _oracle(self, path: Path) -> Oracle:
        if path not in self._oracles:
            self._oracles[path] = Oracle.from_file(path)
        return self._oracles[path]

    def _validate(self, op, stdout: str) -> list[str]:
        oracle = self._oracle(op.scenario)
        if op.kind == "verify":
            return check_verify(stdout, oracle)
        try:
            report = epr_io.run_report_from_json(stdout)
        except ScenarioFormatError as exc:
            return [f"report does not re-parse: {exc}"]
        problems = check_analysis(report["analysis"], oracle)
        if op.kind == "analyze":
            golden = golden_analyze_path(op.scenario.stem)
            bundled = self.golden and op.scenario.parent == self.scenario_dir
            if bundled and golden.read_text(encoding="utf-8") != stdout:
                problems.append(f"analyze report differs from {golden.name}")
            return problems
        if "sampling" not in report:
            return problems + ["sample report has no sampling section"]
        problems += check_sampling(report["sampling"], oracle, op.shots, op.sample_seed)
        golden_digest = self.golden_counts.get(op.golden_key)
        if golden_digest is not None and golden_digest != counts_digest(report):
            problems.append(f"counts differ from the golden digest for {op.golden_key}")
        return problems
