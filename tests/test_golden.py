"""Reports and sampled counts, byte for byte against perfbench/golden/.

The bundled scenarios' reports and counts are checked, and so are the
counts of the scenarios the benchmark generates for ``cli_small`` at seed
0, rebuilt here by ``perfbench/workloads.py``. The golden files and the
workload module are read, never written; ``perfbench/capture_golden.py``
is the only thing that rewrites the golden files, for a change meant to
move bytes.
"""

import hashlib
import importlib.util
import json
import sys
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


def load_workloads():
    """perfbench/workloads.py, imported from its file without touching perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", GOLDEN.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


# The digests of scenarios the benchmark generates, not bundled: cli_small's N = 2..4 files at seed 0.
GENERATED_STEMS = sorted({key.split("|")[0] for key in golden_counts()} - set(BUNDLED))


@pytest.fixture(scope="module")
def generated_sample_ops(tmp_path_factory):
    workloads = load_workloads()
    work_dir = tmp_path_factory.mktemp("cli_small")
    scenario_dir = scenario_path(BUNDLED[0]).parent
    ops = workloads.build("cli_small", workloads.DEFAULT_SEED, work_dir, scenario_dir)
    return {op.scenario.stem: op for op in ops if op.kind == "sample" and op.scenario.parent == work_dir}


def test_generated_stems_are_the_cli_small_scenarios(generated_sample_ops):
    assert len(GENERATED_STEMS) == 6
    assert sorted(generated_sample_ops) == GENERATED_STEMS


@pytest.mark.parametrize("stem", GENERATED_STEMS)
def test_generated_sample_counts_match_golden_digest(stem, generated_sample_ops, capsys):
    op = generated_sample_ops[stem]
    # the key names the file by its contents, so a regenerated file with other bytes has no digest
    assert op.golden_key in golden_counts()
    assert main(op.argv) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)["sampling"]["counts"]
    assert sha256(json.dumps(counts, sort_keys=True).encode("utf-8")) == golden_counts()[op.golden_key]
