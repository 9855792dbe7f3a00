import gc
import math
import weakref
from collections import Counter
from importlib.resources import files

import numpy as np
import pytest

from eprkit import cli, composite, conditional, lab, linalg, states
from eprkit import io as eprio
from eprkit.composite import SumObservable, lift, sum_observable
from eprkit.conditional import conditional_distribution, oracle_conditional
from eprkit.errors import DegenerateSpectrumError, DimensionMismatchError
from eprkit.lab import (
    build_pauli_scenario,
    build_scenario,
    compare_empirical,
    path_key,
    run_epr_analysis,
    sample_chain,
)
from eprkit.lab import ShotRecord
from eprkit.linalg import Observable, extract_c
from eprkit.states import PureState, SpectrumFunction, outcome_probabilities
from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    brute_sum_distribution,
    random_hermitian,
    random_state_vector,
)

EPR_AMPLITUDES = [0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]
BUNDLED = ["pauli_epr.json", "pauli_uniform.json", "spin_one.json"]


def bundled_and_random_scenarios():
    """The bundled scenario files, then one random scenario for each N = 2..5."""
    scenarios = [eprio.scenario_from_json((files("eprkit.scenarios") / name).read_text()) for name in BUNDLED]
    rng = np.random.default_rng(25)
    for n in range(2, 6):
        psi = random_state_vector(rng, n * n)
        scenarios.append(build_scenario(f"random-{n}", random_hermitian(rng, n), random_hermitian(rng, n), psi))
    return scenarios


class TestScenarioConstruction:
    def test_pauli_builder_wires_the_triple(self):
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        assert sc.factor_dim == 2
        assert sc.alpha == 2.0
        assert np.allclose(sc.obs_c.matrix, PAULI_Y)
        assert sc.commutation_residual <= 1e-12

    def test_rejects_inconsistent_c(self):
        bad_c = PAULI_Y + 1e-3 * PAULI_Z
        with pytest.raises(ValueError):
            build_scenario("bad", PAULI_Z, PAULI_X, np.full(4, 0.5), alpha=2.0, matrix_c=bad_c)

    def test_derives_c_when_absent(self):
        sc = build_scenario("derived", PAULI_Z, PAULI_X, np.full(4, 0.5), alpha=2.0)
        assert np.allclose(sc.obs_c.matrix, PAULI_Y)

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(ValueError):
            build_pauli_scenario([0.0, 0.0, 0.0, 0.0])

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(DimensionMismatchError):
            build_pauli_scenario([1.0, 0.0])


class TestRunEprAnalysis:
    def test_two_branch_worked_example(self):
        report = run_epr_analysis(build_pauli_scenario(EPR_AMPLITUDES))
        assert report.sum_spectrum.probability_of(0.0) == pytest.approx(1.0, abs=1e-12)

        branch = report.branch_for(0.0)
        assert branch.a1.mean == pytest.approx(0.6, abs=1e-12)
        assert branch.a1.stdev == pytest.approx(0.8, abs=1e-12)
        assert branch.a2.mean == pytest.approx(-0.6, abs=1e-12)
        assert branch.a2.stdev == pytest.approx(0.8, abs=1e-12)
        assert branch.sum_constraint.mean_identity_residual <= 1e-12
        assert branch.sum_constraint.stdev_gap <= 1e-12
        for summary in (branch.b1, branch.b2):
            assert summary.mean == pytest.approx(0.0, abs=1e-12)
            assert summary.stdev == pytest.approx(1.0, abs=1e-12)
        for summary in (branch.c1, branch.c2):
            assert summary.mean == pytest.approx(0.0, abs=1e-12)
        assert branch.schmidt_rank == 2
        for audit in (branch.audit_slot1, branch.audit_slot2):
            assert audit.delta_a * audit.delta_b == pytest.approx(0.8, abs=1e-10)
            assert audit.rhs <= 1e-10
            assert audit.satisfied

        chain = report.chain_for(0.0, 1.0)
        assert chain.a2_value == -1.0
        assert chain.conditional_probability == pytest.approx(0.8, abs=1e-12)
        assert chain.a2_predicted == pytest.approx(-1.0, abs=1e-12)
        assert chain.a2_stdev <= 1e-10
        assert chain.point_mass_residual <= 1e-12
        assert chain.resolution.rhs <= 1e-10

    def test_uniform_scenario(self):
        report = run_epr_analysis(build_pauli_scenario([0.5, 0.5, 0.5, 0.5]))
        assert report.sum_spectrum.probabilities == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        branch = report.branch_for(0.0)
        assert branch.a1.mean == pytest.approx(0.0, abs=1e-12)
        assert branch.a1.stdev == pytest.approx(1.0, abs=1e-12)
        chain = report.chain_for(0.0, 1.0)
        assert chain.a2_predicted == pytest.approx(-1.0, abs=1e-12)
        assert chain.a2_stdev <= 1e-10
        assert chain.resolution.rhs <= 1e-10

    def test_product_state_single_branch(self):
        report = run_epr_analysis(build_pauli_scenario([1.0, 0.0, 0.0, 0.0]))
        assert len(report.per_sum) == 1
        assert report.per_sum[0].s_value == 2.0
        chain = report.chain_for(2.0, 1.0)
        assert chain.a2_predicted == pytest.approx(1.0, abs=1e-12)

    def test_random_scenarios_hold_all_invariants(self):
        # N = 2..8 reaches the composite-dimension envelope of 64
        rng = np.random.default_rng(80)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            psi = random_state_vector(rng, n * n)
            sc = build_scenario(f"random-{trial}", a, b, psi)
            report = run_epr_analysis(sc)

            # the oracle gets its own Observable, so it shares no cached spectral data with the analysis
            fresh_a = Observable(a)
            oracle = oracle_conditional(
                PureState(psi, factor_dims=(n, n)), fresh_a, SpectrumFunction.identity(fresh_a.eigenvalues)
            )
            brute = brute_sum_distribution(psi, a)
            scale = max(1.0, float(np.abs(fresh_a.eigenvalues).max()))
            assert [branch.s_value for branch in report.per_sum] == pytest.approx(list(oracle.sums), abs=1e-9 * scale)
            for value, prob in report.sum_spectrum.outcomes:
                key = min(brute, key=lambda s: abs(s - value))
                assert abs(key - value) <= 1e-8 * scale
                assert prob == pytest.approx(brute[key], abs=1e-10)
            for branch in report.per_sum:
                assert branch.probability == report.sum_spectrum.probability_of(branch.s_value)
                assert branch.a1.mean == pytest.approx(oracle.value_at(branch.s_value), abs=1e-9 * scale)
                assert branch.audit_slot1.satisfied
                assert branch.audit_slot2.satisfied
                assert branch.sum_constraint.mean_identity_residual <= 1e-10
                assert branch.sum_constraint.stdev_gap <= 1e-10
            for chain in report.chains:
                assert chain.a2_stdev <= 1e-10
                assert chain.resolution.rhs <= 1e-10
                assert chain.resolution.satisfied

    def test_spectral_data_is_built_once_per_scenario(self, monkeypatch):
        n = 8
        rng = np.random.default_rng(8)
        matrices = {"a": random_hermitian(rng, n), "b": random_hermitian(rng, n)}
        sc = build_scenario("guard", matrices["a"], matrices["b"], random_state_vector(rng, n * n))
        matrices["c"] = sc.obs_c.matrix
        eye = np.eye(n)

        # the walk takes every eigenvalue by position, so no module may match one by value
        def no_match(*args):
            raise AssertionError("match_value called during the analysis")

        for module in (linalg, composite, conditional, states):
            monkeypatch.setattr(module, "match_value", no_match)

        # the N projectors of the A(1) outcomes, P_n x I, are each built once per analysis
        a1_projectors = []
        original_tensor_product = linalg.tensor_product

        def counting_tensor_product(a, b):
            if np.array_equal(b, eye) and any(np.array_equal(a, p) for p in sc.obs_a.projectors):
                a1_projectors.append(a)
            return original_tensor_product(a, b)

        for module in (linalg, composite, conditional):
            monkeypatch.setattr(module, "tensor_product", counting_tensor_product)

        # branches and chains collapse from the vectors their distributions already projected
        collapses = []
        original_collapse = composite.post_measurement_state

        def counting_collapse(state, projector):
            collapses.append(projector)
            return original_collapse(state, projector)

        for module in (composite, conditional, lab):
            if hasattr(module, "post_measurement_state"):
                monkeypatch.setattr(module, "post_measurement_state", counting_collapse)

        built = []
        original_init = Observable.__init__

        def counting_init(self, matrix):
            original_init(self, matrix)
            if self.dim == n * n:
                built.append(self)

        eigh_dims = Counter()
        original_eigh = np.linalg.eigh

        def counting_eigh(h):
            eigh_dims[np.shape(h)[0]] += 1
            return original_eigh(h)

        monkeypatch.setattr(Observable, "__init__", counting_init)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        report = run_epr_analysis(sc)
        assert len(report.per_sum) > 1 and len(report.chains) > n
        assert len(a1_projectors) <= n
        assert collapses == []

        assert sum(type(obs) is SumObservable for obs in built) == 1
        lifted = [obs for obs in built if type(obs) is Observable]
        for name, m in matrices.items():
            for slot, kron in ((1, np.kron(m, eye)), (2, np.kron(eye, m))):
                copies = sum(np.array_equal(obs.matrix, kron) for obs in lifted)
                assert copies <= 1, f"{name} lifted to slot {slot} {copies} times"
        assert len(lifted) <= 6
        # lifted and sum observables take their lines from the factors: only N x N eigh calls
        assert eigh_dims[n * n] == 0

        # a second analysis of the same scenario reuses everything
        counts = (len(built), sum(eigh_dims.values()))
        run_epr_analysis(sc)
        assert (len(built), sum(eigh_dims.values())) == counts

        # a degenerate B lifts from its factor lines too
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        b = u @ np.diag([1.0, 1.0] + [0.0] * (n - 2)) @ u.conj().T
        degenerate = build_scenario("degenerate-b", matrices["a"], b, random_state_vector(rng, n * n))
        assert not degenerate.obs_b.is_nondegenerate
        run_epr_analysis(degenerate)
        assert eigh_dims[n * n] == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_analysis_is_invariant_under_scaling_a(self, n):
        # grouping tolerances scale with the spectrum: A*s has the branches and chains of A
        rng = np.random.default_rng(100 + n)
        a, b, psi = random_hermitian(rng, n), random_hermitian(rng, n), random_state_vector(rng, n * n)
        base = run_epr_analysis(build_scenario("base", a, b, psi))
        radius = float(np.abs(np.linalg.eigvalsh(a)).max())
        for s in (1e-12, 1e-9, 1e3):
            sc = build_scenario("scaled", a * s, b, psi)
            scaled = run_epr_analysis(sc)
            assert len(scaled.per_sum) == len(base.per_sum)
            assert len(scaled.chains) == len(base.chains)
            # lookups and the oracle work at the scenario's own scale
            for branch in scaled.per_sum:
                assert scaled.branch_for(branch.s_value) is branch
            for chain in scaled.chains:
                assert scaled.chain_for(chain.s_value, chain.a1_value) is chain
            oracle = oracle_conditional(sc.initial_state, sc.obs_a, SpectrumFunction.identity(sc.obs_a.eigenvalues))
            assert len(oracle.entries) == len(scaled.per_sum)
            scaled_value = lambda x: pytest.approx(s * x, rel=1e-9, abs=1e-9 * s * radius)  # noqa: E731
            for got, want in zip(scaled.per_sum, base.per_sum):
                assert got.s_value == scaled_value(want.s_value)
                assert got.a1.mean == scaled_value(want.a1.mean)
                assert got.probability == pytest.approx(want.probability, rel=1e-9, abs=1e-12)
            for got, want in zip(scaled.chains, base.chains):
                assert got.a1_value == scaled_value(want.a1_value)
                assert got.conditional_probability == pytest.approx(want.conditional_probability, rel=1e-9, abs=1e-12)

    def test_rejects_a_whose_merged_sums_leave_a2_unpinned(self):
        # the gap 1.5e-9 resolves A, but within the pair sums' tolerance of 2e-9
        # (0, 1) and (0, 2) land on one sum line, so observing a_0 there pins no a_m
        rng = np.random.default_rng(1)
        sc = build_scenario("near", np.diag([-1.0, 0.0, 1.5e-9]), random_hermitian(rng, 3), random_state_vector(rng, 9))
        with pytest.raises(DegenerateSpectrumError, match="pins no A"):
            run_epr_analysis(sc)

    def test_cached_spectral_data_is_freed_with_the_scenario(self):
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        run_epr_analysis(sc)
        compare_empirical(sample_chain(sc, 100, seed=1), sc)
        refs = [weakref.ref(sc), weakref.ref(sum_observable(sc.obs_a))]
        refs += [weakref.ref(lift(obs, slot)) for obs in (sc.obs_a, sc.obs_b, sc.obs_c) for slot in (1, 2)]
        # with the cycle collector off, only reference counting can free them
        gc.disable()
        try:
            del sc
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestSampleChain:
    def test_identical_seed_identical_record(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        first = sample_chain(sc, 5000, seed=7)
        second = sample_chain(sc, 5000, seed=7)
        assert first == second

    def test_single_shot(self):
        record = sample_chain(build_pauli_scenario(EPR_AMPLITUDES), 1, seed=3)
        assert record.shots == 1
        assert len(record.counts) == 1
        assert record.counts[0][1] == 1

    def test_deterministic_scenario_one_path(self):
        record = sample_chain(build_pauli_scenario([1.0, 0.0, 0.0, 0.0]), 500, seed=11)
        assert record.counts == (((2.0, 1.0, 1.0), 500),)

    def test_frequencies_concentrate(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        record = sample_chain(sc, 100000, seed=19)
        freq = record.empirical[(0.0, 1.0, -1.0)]
        assert abs(freq - 0.8) < 0.02

    def test_chain_tables_equal_the_projector_route_bit_for_bit(self):
        for sc in bundled_and_random_scenarios():
            spectrum, cond_probs, paths = sc.chain_tables
            assert spectrum == outcome_probabilities(sc.initial_state, sum_observable(sc.obs_a))
            populated = {k for k, _ in paths}
            assert populated == {k for k, (_, p) in enumerate(spectrum.outcomes) if p >= lab.ZERO_PROB_THRESHOLD}
            for k, (s_value, _) in enumerate(spectrum.outcomes):
                if k not in populated:
                    assert not cond_probs[k].any()
                    continue
                dist = conditional_distribution(sc.initial_state, sc.obs_a, s_value)
                support = sorted(n for kk, n in paths if kk == k)
                assert [paths[k, n][1] for n in support] == dist.values.tolist()
                assert cond_probs[k, support].tolist() == dist.probabilities.tolist()
                assert not np.delete(cond_probs[k], support).any()

    def test_rejects_bad_shots(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        for bad in (0, -5, 2.5):
            with pytest.raises(ValueError):
                sample_chain(sc, bad)

    def test_rejects_bad_seed(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES)
        with pytest.raises(ValueError):
            sample_chain(sc, 10, seed=2**64)

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            ShotRecord(scenario_label="x", seed=0, shots=5, counts=(((0.0, 1.0, -1.0), 4),))


class TestCompareEmpirical:
    def test_deterministic_scenario_zero_deviation(self):
        sc = build_pauli_scenario([1.0, 0.0, 0.0, 0.0])
        record = sample_chain(sc, 1000, seed=5)
        comparison = compare_empirical(record, sc)
        assert comparison.max_abs_deviation == 0.0
        assert comparison.within_3sigma

    def test_large_sample_within_bounds(self):
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        record = sample_chain(sc, 100000, seed=42)
        comparison = compare_empirical(record, sc)
        assert comparison.within_3sigma
        assert comparison.max_abs_deviation < 0.01

    def test_chain_tables_are_built_once_for_sampling_and_comparison(self, monkeypatch, tmp_path, capsys):
        calls = []
        original = lab._chain_distributions

        def counting(sc):
            calls.append(sc)
            return original(sc)

        analyses = []
        original_analysis = lab.run_epr_analysis

        def counting_analysis(sc):
            analyses.append(sc)
            return original_analysis(sc)

        def no_conditional_distribution(*args):
            raise AssertionError("sampling tables must be read off the analysis")

        monkeypatch.setattr(lab, "_chain_distributions", counting)
        monkeypatch.setattr(lab, "run_epr_analysis", counting_analysis)
        for module in (lab, conditional):
            monkeypatch.setattr(module, "conditional_distribution", no_conditional_distribution, raising=False)
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        record = sample_chain(sc, 1000, seed=3)
        compare_empirical(record, sc)
        sample_chain(sc, 1000, seed=4)
        assert calls == [sc]
        assert analyses == [sc]

        # `epr sample` analyzes its scenario once for the report, the tables and the comparison
        path = tmp_path / "uniform.json"
        path.write_text(eprio.scenario_to_json(sc), encoding="utf-8")
        assert cli.main(["sample", str(path), "--shots", "1000"]) == 0
        capsys.readouterr()
        assert len(analyses) == 2 and len(calls) == 2

    def test_label_mismatch_rejected(self):
        sc = build_pauli_scenario(EPR_AMPLITUDES, label="one")
        other = build_pauli_scenario(EPR_AMPLITUDES, label="two")
        record = sample_chain(sc, 100, seed=1)
        with pytest.raises(ValueError):
            compare_empirical(record, other)

    def test_sum_marginal_converges_across_seeds(self):
        # 3-sigma binomial band per sum outcome, checked over 100 fixed seeds
        sc = build_pauli_scenario([0.5, 0.5, 0.5, 0.5])
        shots = 10000
        analytic = {-2.0: 0.25, 0.0: 0.5, 2.0: 0.25}
        passes = 0
        for seed in range(100):
            record = sample_chain(sc, shots, seed=seed)
            marginal: dict[float, float] = {}
            for (s_origin, _, _), count in record.counts:
                marginal[s_origin] = marginal.get(s_origin, 0.0) + count / shots
            ok = all(
                abs(marginal.get(s, 0.0) - p) <= 3.0 * math.sqrt(p * (1 - p) / shots)
                for s, p in analytic.items()
            )
            passes += ok
        assert passes >= 99


def test_path_key_uses_twelve_significant_digits():
    assert path_key(0.0, 1.0, -1.0) == "0,1,-1"
    assert path_key(1 / 3, 2 / 3, 1.0) == "0.333333333333,0.666666666667,1"
