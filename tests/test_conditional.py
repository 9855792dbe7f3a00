import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprkit.composite import lift, sum_observable
from eprkit.conditional import (
    ConditionalDistribution,
    PairSpectrumFunction,
    certain_prediction,
    certain_prediction_from,
    conditional_distribution,
    conditional_prediction,
    epr_resolution_check,
    oracle_conditional,
    quantum_conditional_expectation,
    sequential_measure,
    verify_ce2,
    verify_theorem2,
    verify_tower_property,
)
from eprkit.errors import ImpossibleOutcomeError, SpectrumCoverageError
from eprkit.linalg import Observable, extract_c
from eprkit.states import PureState, SpectrumFunction, best_predictor
from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    brute_conditional_mean,
    random_hermitian,
    random_state_vector,
)


def two_branch_state() -> PureState:
    """Sum pinned to zero with first-factor weights 0.8 / 0.2."""
    return PureState([0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0], factor_dims=(2, 2))


def three_level_chain_state() -> tuple[PureState, Observable]:
    """Equal mix of |1,3>, |2,2>, |3,1> for A = diag(1,2,3); sum pinned to 4."""
    vec = np.zeros(9, dtype=complex)
    vec[[2, 4, 6]] = 1.0 / math.sqrt(3)
    return PureState(vec, factor_dims=(3, 3)), Observable(np.diag([1.0, 2.0, 3.0]))


class TestConditionalDistribution:
    def test_probability_lookup_tolerance_scales_with_the_support(self):
        key = 2.5e12 + 5e-4
        large = ConditionalDistribution(given_sum=1.5e12, support=((-1e12, 0.25), (key, 0.75)))
        assert large.probability_of(float(f"{key:.15g}")) == 0.75
        small = ConditionalDistribution(given_sum=4e-10, support=((1e-10, 0.25), (3e-10, 0.75)))
        assert small.probability_of(1e-10) == 0.25
        with pytest.raises(SpectrumCoverageError):
            small.probability_of(2e-10)

    def test_arrays_are_built_once_and_read_only(self):
        dist = ConditionalDistribution(given_sum=0.0, support=((-1.0, 0.25), (1.0, 0.75)))
        for name in ("values", "probabilities"):
            first = getattr(dist, name)
            assert getattr(dist, name) is first
            assert not first.flags.writeable
        assert dist.values.tolist() == [-1.0, 1.0] and dist.probabilities.tolist() == [0.25, 0.75]

    def test_two_branch_weights(self):
        dist = conditional_distribution(two_branch_state(), Observable(PAULI_Z), 0.0)
        assert dist.given_sum == 0.0
        assert list(dist.values) == [-1.0, 1.0]
        assert dist.probabilities == pytest.approx([0.2, 0.8], abs=1e-12)

    def test_eigenstate_point_mass(self):
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        dist = conditional_distribution(psi, Observable(PAULI_Z), 0.0)
        assert dist.probability_of(1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.probability_of(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_state_balanced(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        dist = conditional_distribution(psi, Observable(PAULI_Z), 0.0)
        assert dist.probabilities == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_zero_probability_sum_rejected(self):
        with pytest.raises(ImpossibleOutcomeError):
            conditional_distribution(two_branch_state(), Observable(PAULI_Z), 2.0)

    def test_sum_outside_spectrum_rejected(self):
        with pytest.raises(SpectrumCoverageError):
            conditional_distribution(two_branch_state(), Observable(PAULI_Z), 0.7)

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            ConditionalDistribution(given_sum=0.0, support=((0.0, math.nan),))

    def test_matches_classical_conditioning(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            s = sum_observable(obs)
            for s_value, p in zip(s.eigenvalues, [line.eigenvalue for line in s.decomposition.lines]):
                dist_s = conditional_distribution(psi, obs, s_value)
                mean = float(np.dot(dist_s.values, dist_s.probabilities))
                brute = brute_conditional_mean(psi.amplitudes, obs.matrix, lambda a: a, s_value)
                assert mean == pytest.approx(brute, abs=1e-9)


class TestConditionalPrediction:
    def test_two_branch_mean_and_error(self):
        summary = conditional_prediction(
            two_branch_state(),
            Observable(PAULI_Z),
            SpectrumFunction.identity([-1.0, 1.0]),
            0.0,
        )
        assert summary.mean == pytest.approx(0.6, abs=1e-12)
        assert summary.stdev == pytest.approx(0.8, abs=1e-12)

    def test_point_mass_has_zero_spread(self):
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        summary = conditional_prediction(psi, Observable(PAULI_Z), SpectrumFunction.identity([-1.0, 1.0]), 0.0)
        assert summary.mean == pytest.approx(1.0, abs=1e-12)
        assert summary.stdev <= 1e-10

    def test_constant_function(self):
        summary = conditional_prediction(
            two_branch_state(), Observable(PAULI_Z), SpectrumFunction.constant([-1.0, 1.0], 3.5), 0.0
        )
        assert summary.mean == pytest.approx(3.5, abs=1e-12)
        assert summary.stdev <= 1e-10


class TestVerifyTheorem2:
    def test_pauli_branch(self):
        report = verify_theorem2(two_branch_state(), Observable(PAULI_Z), 0.0)
        assert report.mean_identity_residual <= 1e-12
        assert report.stdev_gap <= 1e-12

    def test_product_eigenstate(self):
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        report = verify_theorem2(psi, Observable(PAULI_Z), 0.0)
        assert report.mean_identity_residual <= 1e-12
        assert report.stdev_gap <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_states_every_populated_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        obs = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        s = sum_observable(obs)
        from eprkit.states import outcome_probabilities

        for s_value, prob in outcome_probabilities(psi, s).outcomes:
            if prob < 1e-12:
                continue
            report = verify_theorem2(psi, obs, s_value)
            assert report.mean_identity_residual <= 1e-10
            assert report.stdev_gap <= 1e-10


class TestSequentialMeasure:
    def test_pauli_chain_plus_one(self):
        phi = sequential_measure(two_branch_state(), Observable(PAULI_Z), 0.0, 1.0)
        target = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        assert phi.equals_up_to_phase(target)

    def test_pauli_chain_minus_one(self):
        phi = sequential_measure(two_branch_state(), Observable(PAULI_Z), 0.0, -1.0)
        target = PureState([0.0, 0.0, 1.0, 0.0], factor_dims=(2, 2))
        assert phi.equals_up_to_phase(target)

    def test_is_joint_eigenstate(self):
        obs = Observable(PAULI_Z)
        phi = sequential_measure(two_branch_state(), obs, 0.0, 1.0)
        a1 = lift(obs, 1).matrix
        a2 = lift(obs, 2).matrix
        assert np.linalg.norm(a1 @ phi.amplitudes - phi.amplitudes) <= 1e-10
        assert np.linalg.norm(a2 @ phi.amplitudes + phi.amplitudes) <= 1e-10

    def test_unreachable_branch_rejected(self):
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        with pytest.raises(ImpossibleOutcomeError):
            sequential_measure(psi, Observable(PAULI_Z), 0.0, -1.0)


class TestCertainPrediction:
    def test_pauli_chain(self):
        obs = Observable(PAULI_Z)
        phi = sequential_measure(two_branch_state(), obs, 0.0, 1.0)
        result = certain_prediction(phi, obs, SpectrumFunction.identity([-1.0, 1.0]), 0.0, 1.0)
        assert result.value == pytest.approx(-1.0, abs=1e-12)
        assert result.stdev <= 1e-10
        assert result.delta_check.probability_of(-1.0) == pytest.approx(1.0, abs=1e-12)
        assert result.delta_check.probability_of(1.0) <= 1e-12

    def test_constant_function(self):
        obs = Observable(PAULI_Z)
        phi = sequential_measure(two_branch_state(), obs, 0.0, 1.0)
        result = certain_prediction(phi, obs, SpectrumFunction.constant([-1.0, 1.0], 2.0), 0.0, 1.0)
        assert result.value == pytest.approx(2.0, abs=1e-12)
        assert result.stdev <= 1e-10

    def test_three_level_square_function(self):
        psi, obs = three_level_chain_state()
        phi = sequential_measure(psi, obs, 4.0, 1.0)
        g = SpectrumFunction.from_callable(obs.eigenvalues, lambda a: a * a)
        result = certain_prediction(phi, obs, g, 4.0, 1.0)
        assert result.value == pytest.approx(9.0, abs=1e-10)
        assert result.stdev <= 1e-10
        assert result.delta_check.probability_of(3.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unrelated_state(self):
        obs = Observable(PAULI_Z)
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        with pytest.raises(ValueError):
            certain_prediction(psi, obs, SpectrumFunction.identity([-1.0, 1.0]), 0.0, 1.0)

    def test_rejects_nan_point_mass(self):
        # a distribution object carrying a NaN where the point mass should be
        a2_dist = SimpleNamespace(probabilities=np.array([math.nan, 0.0]))
        with pytest.raises(ValueError, match="measurement chain"):
            certain_prediction_from(a2_dist, 0, [-1.0, 1.0])


class TestEprResolutionCheck:
    def test_pauli_chain_state(self):
        a, b, c = Observable(PAULI_Z), Observable(PAULI_X), Observable(PAULI_Y)
        phi = sequential_measure(two_branch_state(), a, 0.0, 1.0)
        report = epr_resolution_check(phi, a, b, c)
        assert report.delta_a <= 1e-10
        assert report.delta_b == pytest.approx(1.0, abs=1e-10)
        assert report.rhs <= 1e-10
        assert report.satisfied

    def test_random_three_level_chains(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            a = Observable(random_hermitian(rng, 3))
            b = Observable(random_hermitian(rng, 3))
            c = Observable(extract_c(a.matrix, b.matrix, 1.0))
            psi = PureState(random_state_vector(rng, 9), factor_dims=(3, 3))
            dist = conditional_distribution(psi, a, float(a.eigenvalues[0] + a.eigenvalues[2]))
            a1_value = float(dist.values[0])
            if dist.probability_of(a1_value) < 1e-6:
                continue
            phi = sequential_measure(psi, a, float(a.eigenvalues[0] + a.eigenvalues[2]), a1_value)
            report = epr_resolution_check(phi, a, b, c)
            assert report.rhs <= 1e-10
            assert report.delta_a <= 1e-10
            assert report.satisfied

    def test_extreme_outcome(self):
        a, b, c = Observable(PAULI_Z), Observable(PAULI_X), Observable(PAULI_Y)
        psi = PureState([1.0, 0.0, 0.0, 0.0], factor_dims=(2, 2))
        phi = sequential_measure(psi, a, 2.0, 1.0)
        report = epr_resolution_check(phi, a, b, c)
        assert report.rhs <= 1e-10
        assert report.satisfied


class TestQuantumConditionalExpectation:
    def test_two_branch_table(self):
        table = quantum_conditional_expectation(
            two_branch_state(), Observable(PAULI_Z), SpectrumFunction.identity([-1.0, 1.0])
        )
        # only s = 0 is populated
        assert len(table.entries) == 1
        assert table.value_at(0.0) == pytest.approx(0.6, abs=1e-12)

    def test_constant_function_gives_ones(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        table = quantum_conditional_expectation(psi, Observable(PAULI_Z), SpectrumFunction.constant([-1.0, 1.0], 1.0))
        assert [e for _, e in table.entries] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_uniform_state_identity(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        table = quantum_conditional_expectation(psi, Observable(PAULI_Z), SpectrumFunction.identity([-1.0, 1.0]))
        assert table.value_at(-2.0) == pytest.approx(-1.0, abs=1e-12)
        assert table.value_at(0.0) == pytest.approx(0.0, abs=1e-12)
        assert table.value_at(2.0) == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_projector_route_equals_classical_conditioning(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        obs = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        f = SpectrumFunction.from_callable(obs.eigenvalues, lambda a: math.sin(a) + a * a)
        quantum = quantum_conditional_expectation(psi, obs, f)
        classical = oracle_conditional(psi, obs, f)
        assert len(quantum.entries) == len(classical.entries)
        for (s1, e1), (s2, e2) in zip(quantum.entries, classical.entries):
            assert s1 == pytest.approx(s2, abs=1e-9)
            assert e1 == pytest.approx(e2, abs=1e-10)

    def test_product_eigenstate_point_tables(self):
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        obs = Observable(PAULI_Z)
        f = SpectrumFunction.identity([-1.0, 1.0])
        quantum = quantum_conditional_expectation(psi, obs, f)
        classical = oracle_conditional(psi, obs, f)
        for (s1, e1), (s2, e2) in zip(quantum.entries, classical.entries):
            assert s1 == pytest.approx(s2, abs=1e-12)
            assert e1 == pytest.approx(e2, abs=1e-12)
        assert quantum.value_at(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_state_symmetric_table(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        obs = Observable(PAULI_Z)
        f = SpectrumFunction.identity([-1.0, 1.0])
        quantum = quantum_conditional_expectation(psi, obs, f)
        classical = oracle_conditional(psi, obs, f)
        for (s1, e1), (s2, e2) in zip(quantum.entries, classical.entries):
            assert e1 == pytest.approx(e2, abs=1e-12)


class TestTowerProperty:
    def test_constant_weight_reduces_to_total_expectation(self):
        psi = two_branch_state()
        obs = Observable(PAULI_Z)
        f = SpectrumFunction.identity([-1.0, 1.0])
        g = SpectrumFunction.constant([-2.0, 0.0, 2.0], 1.0)
        assert verify_tower_property(psi, obs, f, g) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["indicator", "polynomial", "table"]))
    @settings(max_examples=100, deadline=None)
    def test_random_functions_and_states(self, seed, family):
        # indicators are the separating family; polynomials and raw tables add range
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        obs = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        s = sum_observable(obs)
        sums = s.eigenvalues
        if family == "indicator":
            pick = int(rng.integers(0, len(sums)))
            g = SpectrumFunction({sv: float(j == pick) for j, sv in enumerate(sums)})
        elif family == "polynomial":
            c0, c1, c2 = rng.standard_normal(3)
            g = SpectrumFunction.from_callable(sums, lambda x: c0 + c1 * x + c2 * x * x)
        else:
            g = SpectrumFunction({sv: v for sv, v in zip(sums, rng.standard_normal(len(sums)))})
        f = SpectrumFunction({a: v for a, v in zip(obs.eigenvalues, rng.standard_normal(n))})
        assert verify_tower_property(psi, obs, f, g) <= 1e-10

    def test_indicator_weight_extracts_partial_sum(self):
        # G = indicator of one sum picks out that branch's contribution alone
        rng = np.random.default_rng(72)
        obs = Observable(random_hermitian(rng, 3))
        psi = PureState(random_state_vector(rng, 9), factor_dims=(3, 3))
        s = sum_observable(obs)
        f = SpectrumFunction.identity(obs.eigenvalues)
        from eprkit.states import outcome_probabilities

        dist = outcome_probabilities(psi, s)
        for k, s_value in enumerate(s.eigenvalues):
            g = SpectrumFunction({sv: 1.0 if j == k else 0.0 for j, sv in enumerate(s.eigenvalues)})
            assert verify_tower_property(psi, obs, f, g) <= 1e-10
            if dist.outcomes[k][1] > 1e-12:
                table = quantum_conditional_expectation(psi, obs, f)
                partial = table.value_at(s_value) * dist.outcomes[k][1]
                q_route = brute_conditional_mean(psi.amplitudes, obs.matrix, lambda a: a, s_value)
                assert partial == pytest.approx(q_route * dist.outcomes[k][1], abs=1e-10)

    def test_projects_onto_the_sum_lines_once(self, monkeypatch):
        import eprkit.conditional
        import eprkit.states

        calls = []
        project_outcomes = eprkit.states.project_outcomes

        def counting(state, obs):
            calls.append(obs)
            return project_outcomes(state, obs)

        for module in (eprkit.conditional, eprkit.states):
            monkeypatch.setattr(module, "project_outcomes", counting)
        rng = np.random.default_rng(75)
        obs = Observable(random_hermitian(rng, 4))
        psi = PureState(random_state_vector(rng, 16), factor_dims=(4, 4))
        sums = sum_observable(obs).eigenvalues
        f = SpectrumFunction.identity(obs.eigenvalues)
        g = SpectrumFunction({sv: v for sv, v in zip(sums, rng.standard_normal(len(sums)))})
        assert verify_tower_property(psi, obs, f, g) <= 1e-10
        assert len(calls) == 1

    def test_survives_merged_near_coincident_sums(self):
        # two distinct pairs land within the grouping tolerance of each other,
        # so their sums merge into one line; G lookups must follow the merge
        delta = 3e-9
        obs = Observable(np.diag([0.0, 1.0, 2.0 + delta]))
        rng = np.random.default_rng(74)
        psi = PureState(random_state_vector(rng, 9), factor_dims=(3, 3))
        s = sum_observable(obs)
        assert s.multiplicities == (1, 2, 3, 2, 1)
        f = SpectrumFunction.identity(obs.eigenvalues)
        g = SpectrumFunction({sv: v for sv, v in zip(s.eigenvalues, rng.standard_normal(5))})
        assert verify_tower_property(psi, obs, f, g) <= 1e-10
        merged_sum = float(s.eigenvalues[2])
        dist = conditional_distribution(psi, obs, merged_sum)
        assert len(dist.support) == 3

    def test_unconditional_consistency(self):
        # averaging e(s) over p(s) recovers the unconditional prediction
        rng = np.random.default_rng(73)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            s = sum_observable(obs)
            f = SpectrumFunction.from_callable(obs.eigenvalues, lambda a: a**3 - a)
            table = quantum_conditional_expectation(psi, obs, f)
            from eprkit.states import outcome_probabilities

            dist = outcome_probabilities(psi, s)
            total = sum(table.value_at(v) * p for v, p in dist.outcomes if p > 1e-12)
            f_lifted = SpectrumFunction.from_callable(obs.eigenvalues, lambda a: a**3 - a)
            direct = best_predictor(psi, lift(obs, 1), f_lifted)
            assert total == pytest.approx(direct, abs=1e-10)


class TestPinningIdentity:
    def test_pauli_product_function(self):
        obs = Observable(PAULI_Z)
        idx = sum_observable(obs).index
        h = PairSpectrumFunction.from_callable(idx, lambda a, s: a * s)
        assert verify_ce2(two_branch_state(), obs, h, 0.0, 1.0) <= 1e-10

    def test_three_level_sum_function(self):
        psi, obs = three_level_chain_state()
        idx = sum_observable(obs).index
        h = PairSpectrumFunction.from_callable(idx, lambda a, s: a + s)
        assert verify_ce2(psi, obs, h, 4.0, 1.0) <= 1e-10
        # the pinned value itself is a1 + s = 5
        assert h(1.0, 4.0) == 5.0

    def test_constant_function(self):
        obs = Observable(PAULI_Z)
        idx = sum_observable(obs).index
        h = PairSpectrumFunction.from_callable(idx, lambda a, s: 4.25)
        assert verify_ce2(two_branch_state(), obs, h, 0.0, 1.0) <= 1e-10

    def test_pair_lookup_requires_coverage(self):
        h = PairSpectrumFunction({(1.0, 0.0): 2.0})
        with pytest.raises(SpectrumCoverageError):
            h(1.0, 2.0)

    def test_pair_lookup_is_nearest_at_any_scale(self):
        # at a spectral radius of 1e-12 every pair lies within 1e-9 of every other
        rng = np.random.default_rng(62)
        idx = sum_observable(Observable(random_hermitian(rng, 3) * 1e-12)).index
        fn = lambda a, s: a * 1e12 + 10 * s * 1e12  # noqa: E731
        h = PairSpectrumFunction.from_callable(idx, fn)
        pairs = [(idx.factor_eigenvalues[n], s) for s, members in zip(idx.sums, idx.sets) for n, _ in members]
        assert len({round(fn(a, s), 6) for a, s in pairs}) > 1
        for a, s in pairs:
            assert h(a, s) == fn(a, s)
        a, s = pairs[0]
        with pytest.raises(SpectrumCoverageError):
            h(a + 1e-13, s)
