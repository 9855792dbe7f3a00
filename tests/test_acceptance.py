"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``);
a failure surfaces through the usual assertion report instead.
"""

import json
import math
import time
from importlib.resources import files

import numpy as np
import pytest

from eprkit import io as eprio
from eprkit.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from eprkit.composite import ZERO_PROB_THRESHOLD, project_sum, sum_observable
from eprkit.conditional import (
    conditional_distribution,
    oracle_conditional,
    quantum_conditional_expectation,
    sequential_measure,
    verify_theorem2,
    verify_tower_property,
)
from eprkit.lab import build_pauli_scenario, compare_empirical, run_epr_analysis, sample_chain
from eprkit.linalg import Observable
from eprkit.states import (
    PureState,
    SpectrumFunction,
    outcome_probabilities,
    verify_theorem1,
)
from helpers import random_hermitian, random_state_vector

EPR_AMPLITUDES = [0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]
BUNDLED = ["pauli_epr.json", "pauli_uniform.json", "spin_one.json"]


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_commutator_trace_and_diagonal():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for trial in range(100):
        n = 2 + trial % 5  # cycles through 2..6
        a = Observable(random_hermitian(rng, n))
        b = Observable(random_hermitian(rng, n))
        report = verify_theorem1(a, b, alpha=1.0)
        assert report.trace_residual <= 1e-10 * report.c_norm
        assert report.max_diag_residual <= 1e-10 * report.c_norm
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"100 random triples, trace and diagonal vanish ({elapsed * 1000:.0f} ms)")


def test_criterion_2_worked_two_qubit_example():
    sc = build_pauli_scenario(EPR_AMPLITUDES)
    report = run_epr_analysis(sc)

    assert report.sum_spectrum.probability_of(0.0) == pytest.approx(1.0, abs=1e-10)

    dist = conditional_distribution(sc.initial_state, sc.obs_a, 0.0)
    assert dist.probability_of(1.0) == pytest.approx(0.8, abs=1e-10)
    assert dist.probability_of(-1.0) == pytest.approx(0.2, abs=1e-10)

    branch = report.branch_for(0.0)
    assert branch.a1.mean == pytest.approx(0.6, abs=1e-10)
    assert branch.a1.stdev == pytest.approx(0.8, abs=1e-10)
    assert branch.a2.stdev == pytest.approx(0.8, abs=1e-10)
    for summary in (branch.b1, branch.b2):
        assert summary.mean == pytest.approx(0.0, abs=1e-10)
        assert summary.stdev == pytest.approx(1.0, abs=1e-10)
    for summary in (branch.c1, branch.c2):
        assert summary.mean == pytest.approx(0.0, abs=1e-10)
    for audit in (branch.audit_slot1, branch.audit_slot2):
        assert audit.delta_a * audit.delta_b == pytest.approx(0.8, abs=1e-10)
        assert audit.rhs <= 1e-10
        assert audit.satisfied
    _ok(2, "conditional weights 0.8/0.2, moments and audits at 1e-10")


def test_criterion_3_sequential_chain():
    sc = build_pauli_scenario(EPR_AMPLITUDES)
    phi = sequential_measure(sc.initial_state, sc.obs_a, 0.0, 1.0)
    target = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
    assert abs(phi.overlap(target)) >= 1.0 - 1e-10

    report = run_epr_analysis(sc)
    chain = report.chain_for(0.0, 1.0)
    assert chain.a2_predicted == pytest.approx(-1.0, abs=1e-10)
    assert chain.a2_stdev <= 1e-10
    assert chain.point_mass_residual <= 1e-12
    assert chain.resolution.rhs <= 1e-10
    _ok(3, "post state |1,-1> up to phase, certain -1, exact point mass")


def test_criterion_4_sum_constraint_suite():
    rng = np.random.default_rng(1004)
    for trial in range(50):
        n = 2 + trial % 3  # cycles through 2..4
        obs = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        populated = [
            (s, p)
            for s, p in outcome_probabilities(psi, sum_observable(obs)).outcomes
            if p >= 1e-12
        ]
        assert populated
        for s_value, _ in populated:
            report = verify_theorem2(psi, obs, s_value)
            assert report.mean_identity_residual <= 1e-10
            assert report.stdev_gap <= 1e-10
    _ok(4, "50 random states: m(A2) = s - m(A1) and equal spreads at 1e-10")


def test_criterion_5_tower_property_and_oracle():
    rng = np.random.default_rng(1005)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        obs = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        s = sum_observable(obs)
        f = SpectrumFunction({a: v for a, v in zip(obs.eigenvalues, rng.standard_normal(n))})
        g = SpectrumFunction(
            {sv: v for sv, v in zip(s.eigenvalues, rng.standard_normal(len(s.eigenvalues)))}
        )
        assert verify_tower_property(psi, obs, f, g) <= 1e-10

        quantum = quantum_conditional_expectation(psi, obs, f)
        classical = oracle_conditional(psi, obs, f)
        assert len(quantum.entries) == len(classical.entries)
        for (s1, e1), (s2, e2) in zip(quantum.entries, classical.entries):
            assert abs(s1 - s2) <= 1e-9
            assert abs(e1 - e2) <= 1e-10
    _ok(5, "100 trials: tower identity and oracle agreement at 1e-10")


def test_criterion_6_branch_decomposition():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        obs = Observable(random_hermitian(rng, n))
        s = sum_observable(obs)
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        probs, lines = project_sum(psi.amplitudes.reshape(n, n), obs)
        assert np.linalg.norm(lines.sum(axis=0).reshape(-1) - psi.amplitudes) <= 1e-10
        for prob, line in zip(probs, lines.reshape(len(lines), -1)):
            if prob < ZERO_PROB_THRESHOLD:
                continue
            branch = line / np.sqrt(prob)
            s_val = float(np.real(np.vdot(branch, s.matrix @ branch)))
            assert np.linalg.norm(s.matrix @ branch - s_val * branch) <= 1e-10
    _ok(6, "100 random states: the sum lines rebuild the state at 1e-10")


def test_criterion_7_monte_carlo_consistency():
    sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5], label="uniform")
    shots = 10_000
    start = time.perf_counter()
    passes = 0
    for seed in range(100):
        record = sample_chain(sc, shots, seed=seed)
        if compare_empirical(record, sc).within_3sigma:
            passes += 1
    elapsed = time.perf_counter() - start
    assert passes >= 97, f"only {passes}/100 seeds inside the 3-sigma band"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"

    again = sample_chain(sc, shots, seed=13)
    assert again == sample_chain(sc, shots, seed=13)
    assert again.counts == sample_chain(sc, shots, seed=13).counts
    _ok(7, f"{passes}/100 seeds within 3 sigma, bit-identical records ({elapsed:.1f} s)")


def test_criterion_8_cli_contract(tmp_path):
    for name in BUNDLED:
        path = str(files("eprkit.scenarios") / name)
        assert main(["verify", path]) == EXIT_OK
        out = tmp_path / f"{name}.report.json"
        assert main(["analyze", path, "--out", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert eprio.emit_json(eprio.run_report_from_json(text)) == text
        rec = tmp_path / f"{name}.record.json"
        assert main(["sample", path, "--shots", "500", "--seed", "1", "--out", str(rec)]) == EXIT_OK
        rec_text = rec.read_text(encoding="utf-8")
        assert eprio.emit_json(eprio.run_report_from_json(rec_text)) == rec_text

    source = json.loads((files("eprkit.scenarios") / "pauli_epr.json").read_text(encoding="utf-8"))

    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json", encoding="utf-8")
    assert main(["verify", str(garbled)]) == EXIT_PARSE

    unknown = dict(source)
    unknown["mystery"] = True
    unknown_path = tmp_path / "unknown.json"
    unknown_path.write_text(json.dumps(unknown), encoding="utf-8")
    assert main(["verify", str(unknown_path)]) == EXIT_PARSE

    nonherm = json.loads(json.dumps(source))
    nonherm["matrix_b"][0][1] = [0.25, 0.25]
    nonherm_path = tmp_path / "nonherm.json"
    nonherm_path.write_text(json.dumps(nonherm), encoding="utf-8")
    assert main(["verify", str(nonherm_path)]) == EXIT_INVARIANT

    badc = json.loads(json.dumps(source))
    badc["matrix_c"][0][0] = [1e-3, 0.0]
    badc_path = tmp_path / "badc.json"
    badc_path.write_text(json.dumps(badc), encoding="utf-8")
    assert main(["verify", str(badc_path)]) == EXIT_INVARIANT

    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_USAGE
    assert main(["sample", str(files("eprkit.scenarios") / "pauli_epr.json"), "--shots", "0"]) == EXIT_USAGE
    _ok(8, "three bundled files round-trip; corrupted fixtures exit 1/2/3")
