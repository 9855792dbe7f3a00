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


@pytest.mark.parametrize("stem", BUNDLED)
def test_sample_counts_match_golden_digest(stem, capsys):
    path = scenario_path(stem)
    argv = ["sample", str(path), "--shots", str(PREFLIGHT_SHOTS), "--seed", str(PREFLIGHT_SEED)]
    assert main(argv) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)["sampling"]["counts"]
    # the key names the scenario by its file contents, as the benchmark does
    key = f"{stem}|{sha256(path.read_bytes())[:16]}|{PREFLIGHT_SHOTS}|{PREFLIGHT_SEED}"
    golden = json.loads((GOLDEN / "sample_counts.json").read_text(encoding="utf-8"))
    assert sha256(json.dumps(counts, sort_keys=True).encode("utf-8")) == golden[key]
