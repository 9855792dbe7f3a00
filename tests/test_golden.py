"""Reports and sampled counts of the bundled scenarios, byte for byte against perfbench/golden/.

The golden files are read, never written; ``perfbench/capture_golden.py``
is the only thing that rewrites them, for a change meant to move bytes.
"""

import hashlib
import json
from importlib.resources import files
from pathlib import Path

import pytest

from eprkit.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
BUNDLED = ["pauli_epr", "pauli_uniform", "spin_one"]
# The sample operation the benchmark's preflight checks on every bundled scenario.
PREFLIGHT_SHOTS = 10_000
PREFLIGHT_SEED = 0


def scenario_path(stem: str) -> Path:
    return Path(str(files("eprkit.scenarios") / f"{stem}.json"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("stem", BUNDLED)
def test_analyze_report_matches_golden(stem, capsys):
    assert main(["analyze", str(scenario_path(stem))]) == EXIT_OK
    golden = (GOLDEN / f"analyze-{stem}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def golden_counts() -> dict[str, str]:
    return json.loads((GOLDEN / "sample_counts.json").read_text(encoding="utf-8"))


def check_counts_digest(stem: str, shots: int, seed: int, capsys) -> None:
    path = scenario_path(stem)
    argv = ["sample", str(path), "--shots", str(shots), "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)["sampling"]["counts"]
    # the key names the scenario by its file contents, as the benchmark does
    key = f"{stem}|{sha256(path.read_bytes())[:16]}|{shots}|{seed}"
    assert sha256(json.dumps(counts, sort_keys=True).encode("utf-8")) == golden_counts()[key]


@pytest.mark.parametrize("stem", BUNDLED)
def test_sample_counts_match_golden_digest(stem, capsys):
    check_counts_digest(stem, PREFLIGHT_SHOTS, PREFLIGHT_SEED, capsys)


# Every other digest of a bundled scenario: the seeds the benchmark's workloads
# draw, including 2,000,000-shot runs that cross several kernel batches.
WORKLOAD_KEYS = sorted(
    key
    for key in golden_counts()
    if key.split("|")[0] in BUNDLED and key.split("|")[2:] != [str(PREFLIGHT_SHOTS), str(PREFLIGHT_SEED)]
)


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_workload_sample_counts_match_golden_digest(key, capsys):
    stem, _, shots, seed = key.split("|")
    check_counts_digest(stem, int(shots), int(seed), capsys)
