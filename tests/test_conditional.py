import math
import tracemalloc
from collections import Counter
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprkit import composite, conditional, linalg, states
from eprkit import io as eprio
from eprkit.composite import ZERO_PROB_THRESHOLD, anti_diagonal_index, collapse, lift, sum_observable
from eprkit.conditional import (
    ConditionalDistribution,
    PairSpectrumFunction,
    certain_prediction,
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
from eprkit.errors import DegenerateSpectrumError, DimensionMismatchError, ImpossibleOutcomeError, SpectrumCoverageError
from eprkit.lab import build_scenario
from eprkit.linalg import Observable, extract_c
from eprkit.states import OutcomeDistribution, PureState, SpectrumFunction, audit_uncertainty, best_predictor, project_outcomes
from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    brute_conditional_mean,
    function_matrix,
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
        large = ConditionalDistribution(given_sum=1.5e12, outcomes=((-1e12, 0.25), (key, 0.75)))
        assert large.probability_of(float(f"{key:.15g}")) == 0.75
        small = ConditionalDistribution(given_sum=4e-10, outcomes=((1e-10, 0.25), (3e-10, 0.75)))
        assert small.probability_of(1e-10) == 0.25
        with pytest.raises(SpectrumCoverageError):
            small.probability_of(2e-10)

    def test_arrays_are_built_once_and_read_only(self):
        dist = ConditionalDistribution(given_sum=0.0, outcomes=((-1.0, 0.25), (1.0, 0.75)))
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
            ConditionalDistribution(given_sum=0.0, outcomes=((0.0, math.nan),))

    @pytest.mark.parametrize("given_sum", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_sum(self, given_sum):
        with pytest.raises(ValueError, match="finite"):
            ConditionalDistribution(given_sum=given_sum, outcomes=((0.0, 1.0),))

    def test_matches_classical_conditioning(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            s = sum_observable(obs)
            for s_value in s.eigenvalues:
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

    def test_nan_function_value_cannot_reach_the_mean(self):
        # it used to come back as mean=nan
        with pytest.raises(ValueError, match="finite"):
            conditional_prediction(
                two_branch_state(), Observable(PAULI_Z), SpectrumFunction({1.0: math.nan, -1.0: 0.0}), 0.0
            )


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

    def test_rejects_nan_point_mass(self, monkeypatch):
        # a measurement of A(2) that returns NaN where the point mass should be
        obs = Observable(PAULI_Z)
        phi = sequential_measure(two_branch_state(), obs, 0.0, 1.0)
        monkeypatch.setattr(conditional, "_slot2_probabilities", lambda psi, o: np.array([math.nan, 0.0]))
        with pytest.raises(ValueError, match="measurement chain"):
            certain_prediction(phi, obs, SpectrumFunction.identity([-1.0, 1.0]), 0.0, 1.0)

    def test_merged_sum_line_pins_the_partner_of_a1(self):
        # the sum line merges (0, 2), (1, 1) and (2, 0) although 1 + 1 misses 2 + 3.9e-9 by more than
        # A's grouping tolerance, so s - a1 matches no eigenvalue: the partner comes from the pair (1, 1)
        obs = Observable(np.diag([0.0, 1.0, 2.0 + 3.9e-9]))
        psi = PureState(random_state_vector(np.random.default_rng(74), 9), factor_dims=(3, 3))
        index = anti_diagonal_index(obs)
        s_value = index.sums[2]
        assert index.sets[2] == ((0, 2), (1, 1), (2, 0))
        phi = sequential_measure(psi, obs, s_value, 1.0)
        result = certain_prediction(phi, obs, SpectrumFunction.identity(obs.eigenvalues), s_value, 1.0)
        assert result.value == 1.0
        assert result.stdev == 0.0
        with pytest.raises(SpectrumCoverageError):
            certain_prediction(phi, obs, SpectrumFunction.identity(obs.eigenvalues), index.sums[0], 1.0)


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

    def test_sums_are_built_once_and_read_only(self):
        # value_at reads the sums on every call, so they are one array kept with the table
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        table = quantum_conditional_expectation(psi, Observable(PAULI_Z), SpectrumFunction.identity([-1.0, 1.0]))
        assert table.sums is table.sums
        assert table.sums.tolist() == [s for s, _ in table.entries]
        assert not table.sums.flags.writeable


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
        # both sides of the residual read one branch table; the sum lines are summed off it, not re-projected
        calls = []
        branch_table = conditional._branch_table

        def counting(psi, obs):
            calls.append(obs)
            return branch_table(psi, obs)

        monkeypatch.setattr(conditional, "_branch_table", counting)
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
        assert len(dist.outcomes) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_one_sorted_lookup_keeps_the_per_line_residual(self, seed):
        # G was read with one SpectrumFunction call per sum line, each a scan of its whole table;
        # the one sorted lookup over every line must leave the residual bit for bit as it was
        rng = np.random.default_rng([seed, 77])
        observables = [Observable(random_hermitian(rng, n)) for n in range(2, 9)]
        observables += [Observable(np.diag(np.arange(n) * rng.uniform(0.5, 1.5))) for n in (3, 6)]
        # merged near-coincident sums: three pairs on one line, and two pairs in one row
        observables += [Observable(np.diag([0.0, 1.0, 2.0 + 3e-9])), Observable(np.diag([-1.0, 0.0, 1.5e-9]))]
        for a in observables:
            n = a.dim
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            sums = anti_diagonal_index(a).sums
            jitter = 3e-10 * max(abs(x) for x in sums)  # each key off its line's sum, well inside the tolerance
            g = SpectrumFunction({x + jitter * rng.uniform(-1, 1): v for x, v in zip(sums, rng.standard_normal(len(sums)))})
            f = SpectrumFunction({x: v for x, v in zip(a.eigenvalues, rng.standard_normal(n))})
            assert verify_tower_property(psi, a, f, g) == per_line_tower_reference(psi, a, f, g)
            # a G that misses a line names the first line it misses, as the per-line calls did
            partial = SpectrumFunction({x: 1.0 for x in sums[: len(sums) // 2]})
            messages = []
            for tower in (verify_tower_property, per_line_tower_reference):
                with pytest.raises(SpectrumCoverageError) as missed:
                    tower(psi, a, f, partial)
                messages.append(str(missed.value))
            assert messages[0] == messages[1]

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


def per_line_tower_reference(state, a, f, g):
    """``verify_tower_property`` as it read G before the sorted lookup: one ``g(s)`` call per sum line."""
    index = anti_diagonal_index(a)
    gvals = {s: g(s) for s in index.sums}
    fvals = [f(v) for v in a.eigenvalues]
    table = conditional._branch_table(state, a)
    kept = table.kept.tolist()
    means = conditional._conditional_means(table, fvals).tolist()
    lhs = sum(gvals[index.sums[k]] * e * p for k, e, p in zip(kept, means, table.sum_probabilities[kept].tolist()))
    w = table.joint
    rhs = sum(gvals[s] * sum(fvals[n] * w[n, m] for n, m in members) for s, members in zip(index.sums, index.sets))
    return abs(lhs - float(rhs))


class TestPinningIdentity:
    def test_pauli_product_function(self):
        obs = Observable(PAULI_Z)
        idx = anti_diagonal_index(obs)
        h = PairSpectrumFunction.from_callable(idx, lambda a, s: a * s)
        assert verify_ce2(two_branch_state(), obs, h, 0.0, 1.0) <= 1e-10

    def test_three_level_sum_function(self):
        psi, obs = three_level_chain_state()
        idx = anti_diagonal_index(obs)
        h = PairSpectrumFunction.from_callable(idx, lambda a, s: a + s)
        assert verify_ce2(psi, obs, h, 4.0, 1.0) <= 1e-10
        # the pinned value itself is a1 + s = 5
        assert h(1.0, 4.0) == 5.0

    def test_constant_function(self):
        obs = Observable(PAULI_Z)
        idx = anti_diagonal_index(obs)
        h = PairSpectrumFunction.from_callable(idx, lambda a, s: 4.25)
        assert verify_ce2(two_branch_state(), obs, h, 0.0, 1.0) <= 1e-10

    def test_pair_lookup_requires_coverage(self):
        h = PairSpectrumFunction({(1.0, 0.0): 2.0})
        with pytest.raises(SpectrumCoverageError):
            h(1.0, 2.0)

    def test_pair_lookups_are_spectrum_function_lookups_over_the_pairs(self):
        entries = {(1.0, 0.0): 2.0, (-1.0, 0.0): 5.0, (1.0, 2.0): -3.0}
        pairs, table = PairSpectrumFunction(entries), SpectrumFunction(entries)
        tol = table.match_tol
        assert tol == 2e-9
        for (a, s), value in entries.items():
            for query in ((a, s), (a + 0.5 * tol, s - 0.5 * tol)):
                assert pairs(*query) == table(query) == value
        for miss in ((1.0 + 2 * tol, 0.0), (0.0, 1.0), (math.nan, 0.0)):
            with pytest.raises(SpectrumCoverageError):
                pairs(*miss)
            with pytest.raises(SpectrumCoverageError):
                table(miss)
        for kind in (PairSpectrumFunction, SpectrumFunction):
            with pytest.raises(ValueError, match="spectrum function table is empty"):
                kind({})

    def test_pair_table_rejects_non_finite_keys(self):
        # an infinite a made the tolerance infinite, so (-7, 42) read 3.0
        with pytest.raises(ValueError, match="finite"):
            PairSpectrumFunction({(math.inf, 0.0): 1.0, (1.0, 0.0): 3.0})

    def test_pair_lookup_is_nearest_at_any_scale(self):
        # at a spectral radius of 1e-12 every pair lies within 1e-9 of every other
        rng = np.random.default_rng(62)
        idx = anti_diagonal_index(Observable(random_hermitian(rng, 3) * 1e-12))
        fn = lambda a, s: a * 1e12 + 10 * s * 1e12  # noqa: E731
        h = PairSpectrumFunction.from_callable(idx, fn)
        pairs = [(idx.factor_eigenvalues[n], s) for s, members in zip(idx.sums, idx.sets) for n, _ in members]
        assert len({round(fn(a, s), 6) for a, s in pairs}) > 1
        for a, s in pairs:
            assert h(a, s) == fn(a, s)
        a, s = pairs[0]
        with pytest.raises(SpectrumCoverageError):
            h(a + 1e-13, s)


def within(x, y) -> bool:
    """|x - y| <= 1e-12 * max(1, |x|), elementwise."""
    x, y = np.asarray(x), np.asarray(y)
    return bool(np.all(np.abs(x - y) <= 1e-12 * np.maximum(1.0, np.abs(x))))


def factor_observable(rng, n: int, spacing: str) -> Observable:
    if spacing == "random":
        return Observable(random_hermitian(rng, n))
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return Observable(u @ np.diag(np.arange(n) - (n - 1) / 2) @ u.conj().T)


class TestDenseRoute:
    """The entry points measure on the N x N coefficient matrix; the dense N^2 x N^2 route is their reference."""

    @pytest.mark.parametrize("spacing", ["random", "equal"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_entry_point_matches_the_dense_route(self, n, spacing):
        rng = np.random.default_rng(90 + n)
        a = factor_observable(rng, n, spacing)
        b = Observable(random_hermitian(rng, n))
        c = Observable(extract_c(a.matrix, b.matrix, 1.0))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        s_obs = sum_observable(a)
        index = anti_diagonal_index(a)
        f = SpectrumFunction.from_callable(a.eigenvalues, lambda x: math.sin(x) + x * x)
        fvals = [f(v) for v in a.eigenvalues]
        g = SpectrumFunction({s: v for s, v in zip(index.sums, rng.standard_normal(len(index.sums)))})
        h = PairSpectrumFunction.from_callable(index, lambda x, s: x * s + math.cos(s))
        eye = np.eye(n)
        f1 = np.kron(function_matrix(a, f), eye)
        g_s = sum(g(s) * p for s, p in zip(index.sums, s_obs.projectors))
        h_op = sum(
            h(index.factor_eigenvalues[i], s) * np.kron(a.projectors[i], a.projectors[j])
            for s, members in zip(index.sums, index.sets)
            for i, j in members
        )
        lifted = {(obs, slot): lift(obs, slot) for obs in (a, b, c) for slot in (1, 2)}

        dist, projected = project_outcomes(psi, s_obs)
        populated = [(k, s, p) for k, (s, p) in enumerate(dist.outcomes) if p >= ZERO_PROB_THRESHOLD]
        dense_table = [(s, float(np.real(np.vdot(projected[k], f1 @ projected[k]))) / p) for k, s, p in populated]
        table = quantum_conditional_expectation(psi, a, f)
        assert [s for s, _ in table.entries] == [s for s, _ in dense_table]
        assert within([e for _, e in table.entries], [e for _, e in dense_table])
        lhs = sum(g(s) * e * p for (s, e), (_, _, p) in zip(dense_table, populated))
        dense_tower = abs(lhs - float(np.real(psi.expectation(f1 @ g_s))))
        assert within(verify_tower_property(psi, a, f, g), dense_tower)

        chains = 0
        for k, s, p in populated:
            psi_s = collapse(psi, projected[k], p)
            a1_dist, a1_projected = project_outcomes(psi_s, lifted[a, 1])
            a2_dist, _ = project_outcomes(psi_s, lifted[a, 2])
            dist_s = conditional_distribution(psi, a, s)
            assert dist_s.given_sum == s
            assert dist_s.values.tolist() == [index.factor_eigenvalues[i] for i, _ in index.sets[k]]
            assert within(dist_s.probabilities, [a1_dist.probabilities[i] for i, _ in index.sets[k]])
            summary = conditional_prediction(psi, a, f, s)
            assert within((summary.mean, summary.stdev), a1_dist.moments(fvals))
            report = verify_theorem2(psi, a, s)
            (mean1, stdev1), (mean2, stdev2) = a1_dist.moments(a.eigenvalues), a2_dist.moments(a.eigenvalues)
            assert within(report.mean_identity_residual, abs(mean2 - (s - mean1)))
            assert within(report.stdev_gap, abs(stdev1 - stdev2))

            for i, j in index.sets[k]:
                a1_value = index.factor_eigenvalues[i]
                if a1_dist.probabilities[i] < ZERO_PROB_THRESHOLD:
                    continue
                chains += 1
                dense_phi = collapse(psi_s, a1_projected[i], a1_dist.probabilities[i])
                phi = sequential_measure(psi, a, s, a1_value)
                assert phi.factor_dims == (n, n)
                assert within(phi.amplitudes, dense_phi.amplitudes)
                prediction = certain_prediction(phi, a, f, s, a1_value)
                dense_a2 = project_outcomes(dense_phi, lifted[a, 2])[0]
                assert within(prediction.delta_check.probabilities, dense_a2.probabilities)
                assert within((prediction.value, prediction.stdev), dense_a2.moments(fvals))
                audit = epr_resolution_check(phi, a, b, c)
                dense_audit = audit_uncertainty(dense_phi, lifted[a, 2], lifted[b, 2], lifted[c, 2])
                fields = ("delta_a", "delta_b", "rhs")
                assert within([getattr(audit, x) for x in fields], [getattr(dense_audit, x) for x in fields])
                assert audit.satisfied == dense_audit.satisfied
                dense_ce2 = abs(float(np.real(dense_phi.expectation(h_op))) - h(a1_value, s))
                assert within(verify_ce2(psi, a, h, s, a1_value), dense_ce2)
        assert chains >= n

    def test_no_entry_point_runs_the_dense_route(self, monkeypatch):
        n = 4
        rng = np.random.default_rng(91)
        a, b = Observable(random_hermitian(rng, n)), Observable(random_hermitian(rng, n))
        c = Observable(extract_c(a.matrix, b.matrix, 1.0))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        index = anti_diagonal_index(a)
        f = SpectrumFunction.identity(a.eigenvalues)
        g = SpectrumFunction.identity(index.sums)
        h = PairSpectrumFunction.from_callable(index, lambda x, s: x + s)
        s_value = index.sums[len(index.sums) // 2]
        a1_value = index.factor_eigenvalues[index.sets[len(index.sums) // 2][0][0]]

        calls = Counter()
        watched = {
            "lift": composite,
            "sum_observable": composite,
            "tensor_product": linalg,
            "project_outcomes": states,
            "post_measurement_state": composite,
            "collapse": composite,
        }
        for name, home in watched.items():
            original = getattr(home, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (linalg, states, composite, conditional):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        built = []
        original_init = Observable.__init__

        def counting_init(self, matrix):
            original_init(self, matrix)
            built.append(self.dim)

        monkeypatch.setattr(Observable, "__init__", counting_init)

        conditional_distribution(psi, a, s_value)
        conditional_prediction(psi, a, f, s_value)
        verify_theorem2(psi, a, s_value)
        phi = sequential_measure(psi, a, s_value, a1_value)
        certain_prediction(phi, a, f, s_value, a1_value)
        epr_resolution_check(phi, a, b, c)
        quantum_conditional_expectation(psi, a, f)
        verify_tower_property(psi, a, f, g)
        verify_ce2(psi, a, h, s_value, a1_value)
        assert calls == Counter()
        assert built == []

    def test_degenerate_a(self):
        rng = np.random.default_rng(92)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        a = Observable(u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T)
        assert a.multiplicities == (2, 1)
        psi = PureState(random_state_vector(rng, 9), factor_dims=(3, 3))
        index = anti_diagonal_index(a)
        s_value, a1_value = index.sums[1], index.factor_eigenvalues[0]
        f = SpectrumFunction.from_callable(a.eigenvalues, lambda x: x * x)
        g = SpectrumFunction.identity(index.sums)
        h = PairSpectrumFunction.from_callable(index, lambda x, s: x + s)
        for call in (
            lambda: conditional_distribution(psi, a, s_value),
            lambda: conditional_prediction(psi, a, f, s_value),
            lambda: verify_theorem2(psi, a, s_value),
            lambda: sequential_measure(psi, a, s_value, a1_value),
            lambda: verify_tower_property(psi, a, f, g),
            lambda: verify_ce2(psi, a, h, s_value, a1_value),
        ):
            with pytest.raises(DegenerateSpectrumError):
                call()

        # the conditional expectation and the post-chain checks read A's lines, which a degenerate A still has
        s_obs = sum_observable(a)
        dist, projected = project_outcomes(psi, s_obs)
        f1 = np.kron(function_matrix(a, f), np.eye(3))
        expected = [
            (s, float(np.real(np.vdot(w, f1 @ w))) / p)
            for (s, p), w in zip(dist.outcomes, projected)
            if p >= ZERO_PROB_THRESHOLD
        ]
        table = quantum_conditional_expectation(psi, a, f)
        assert [s for s, _ in table.entries] == [s for s, _ in expected]
        assert within([e for _, e in table.entries], [e for _, e in expected])
        phi = PureState(np.kron(u[:, 0], u[:, 2]), factor_dims=(3, 3))
        prediction = certain_prediction(phi, a, f, s_value, a1_value)
        assert prediction.value == pytest.approx(4.0, abs=1e-12)
        assert prediction.stdev <= 1e-10
        b = Observable(random_hermitian(rng, 3))
        audit = epr_resolution_check(phi, a, b, Observable(extract_c(a.matrix, b.matrix, 1.0)))
        assert audit.delta_a <= 1e-10 and audit.rhs <= 1e-10 and audit.satisfied

    def test_rejected_inputs(self):
        a = Observable(np.diag([1.0, 2.0, 3.0]))
        index = anti_diagonal_index(a)
        f = SpectrumFunction.identity(a.eigenvalues)
        g = SpectrumFunction.identity(index.sums)
        h = PairSpectrumFunction.from_callable(index, lambda x, s: x + s)
        rng = np.random.default_rng(93)
        a4 = Observable(np.diag([1.0, 2.0, 3.0, 4.0]))
        index4 = anti_diagonal_index(a4)
        f4, g4 = SpectrumFunction.identity(a4.eigenvalues), SpectrumFunction.identity(index4.sums)
        h4 = PairSpectrumFunction.from_callable(index4, lambda x, s: x + s)
        # a 16-vector fits A's 4 x 4 coefficient matrix, but its declared factors do not
        misfactored = PureState(random_state_vector(rng, 16), factor_dims=(2, 8))
        for wrong, obs, fn, gn, hn in (
            (PureState(random_state_vector(rng, 4), factor_dims=(2, 2)), a, f, g, h),
            (misfactored, a4, f4, g4, h4),
        ):
            for call in (
                lambda: conditional_distribution(wrong, obs, 4.0),
                lambda: conditional_prediction(wrong, obs, fn, 4.0),
                lambda: verify_theorem2(wrong, obs, 4.0),
                lambda: sequential_measure(wrong, obs, 4.0, 1.0),
                lambda: certain_prediction(wrong, obs, fn, 4.0, 1.0),
                lambda: epr_resolution_check(wrong, obs, obs, obs),
                lambda: quantum_conditional_expectation(wrong, obs, fn),
                lambda: verify_tower_property(wrong, obs, fn, gn),
                lambda: verify_ce2(wrong, obs, hn, 4.0, 1.0),
            ):
                with pytest.raises(DimensionMismatchError):
                    call()
        psi, _ = three_level_chain_state()
        with pytest.raises(DimensionMismatchError):
            epr_resolution_check(psi, a, Observable(PAULI_X), a)
        with pytest.raises(DimensionMismatchError):
            epr_resolution_check(psi, a, a, Observable(PAULI_Y))
        # only |1,3>, |2,2> and |3,1> carry weight, so the sum 5 is impossible
        for call in (
            lambda: conditional_distribution(psi, a, 5.0),
            lambda: sequential_measure(psi, a, 5.0, 2.0),
            lambda: verify_ce2(psi, a, h, 5.0, 2.0),
        ):
            with pytest.raises(ImpossibleOutcomeError):
                call()
        phi = sequential_measure(psi, a, 4.0, 1.0)
        for call in (
            lambda: conditional_distribution(psi, a, 4.5),
            lambda: sequential_measure(psi, a, 4.0, 1.5),
            lambda: certain_prediction(phi, a, f, 4.0, 1.5),
            lambda: certain_prediction(phi, a, SpectrumFunction({1.0: 1.0}), 4.0, 1.0),
            lambda: verify_ce2(psi, a, h, 4.5, 1.0),
        ):
            with pytest.raises(SpectrumCoverageError):
                call()


def report_scenarios():
    """The bundled scenario files, then 56 random scenarios with a nondegenerate A, N = 2..8, generic and equally spaced."""
    scenarios = [
        eprio.scenario_from_json((files("eprkit.scenarios") / name).read_text())
        for name in ("pauli_epr.json", "pauli_uniform.json", "spin_one.json")
    ]
    rng = np.random.default_rng(97)
    for n in range(2, 9):
        for spacing in ("random", "equal") * 4:
            a = factor_observable(rng, n, spacing)
            psi = random_state_vector(rng, n * n)
            scenarios.append(build_scenario(f"{spacing}-{n}", a, random_hermitian(rng, n), psi))
    return scenarios


class TestReportAgreement:
    def test_every_a_side_answer_equals_the_report_bit_for_bit(self):
        # the analysis and the entry points read one joint table, so each answer is the report's own float
        disagreements = Counter()
        branches = 0
        for sc in report_scenarios():
            psi, a = sc.initial_state, sc.obs_a
            report = sc.analysis
            identity = SpectrumFunction.identity(a.eigenvalues)
            table = quantum_conditional_expectation(psi, a, identity)
            for branch in report.per_sum:
                s = branch.s_value
                chains = [(c.a1_value, c.conditional_probability) for c in report.chains if c.s_value == s]
                dist = conditional_distribution(psi, a, s)
                answers = {
                    "theorem2": verify_theorem2(psi, a, s) == branch.sum_constraint,
                    "prediction": conditional_prediction(psi, a, identity, s) == branch.a1,
                    "expectation": table.value_at(s) == branch.a1.mean,
                    "distribution": [o for o in dist.outcomes if o[1] >= ZERO_PROB_THRESHOLD] == chains,
                }
                disagreements.update(name for name, agrees in answers.items() if not agrees)
                branches += 1
        assert branches > 500
        assert disagreements == Counter()

    def test_sampling_tables_equal_the_report_bit_for_bit(self):
        # the sampler reads the branch table the report was built from: its cdfs add the report's p(s) and
        # p(a1 | s), and its p(s) p(a1 | s) and paths are the report's floats, chain by chain in report order
        disagreements = Counter()
        for sc in report_scenarios():
            report = sc.analysis
            sum_cdf, cond_cdf, listed, analytic, paths = sc.chain_tables
            per_branch = [[c for c in report.chains if c.s_value == b.s_value] for b in report.per_sum]
            width = max(map(len, per_branch))
            cells = [[j < len(branch_chains) for j in range(width)] for branch_chains in per_branch]
            # exactly 1.0 from each row's last chain on, and nothing listed past it
            expected_cdf = np.ones((len(per_branch), width))
            for i, branch_chains in enumerate(per_branch):
                cond = [c.conditional_probability for c in branch_chains[:-1]]
                expected_cdf[i, : len(cond)] = np.cumsum(np.clip(cond, 0.0, 1.0))
            sum_probs = [b.probability for b in report.per_sum]
            answers = {
                "order": [c for branch_chains in per_branch for c in branch_chains] == list(report.chains),
                "probability": sum_cdf[:-1].tolist() == np.cumsum(sum_probs)[:-1].tolist() and sum_cdf[-1] == 1.0,
                "cells": listed.tolist() == cells,
                "conditional": cond_cdf.tolist() == expected_cdf.tolist(),
                "analytic": list(analytic)
                == [
                    min(b.probability * c.conditional_probability, 1.0)
                    for b, branch_chains in zip(report.per_sum, per_branch)
                    for c in branch_chains
                ],
                "paths": list(paths) == [(c.s_value, c.a1_value, c.a2_value) for c in report.chains],
            }
            disagreements.update(name for name, agrees in answers.items() if not agrees)
        assert disagreements == Counter()

    def test_report_chains_are_strictly_ascending(self):
        # sample_chain and compare_empirical list paths in chain order, unsorted: that is sorted order
        # because the chains ascend in (s, a1), branch by branch and by n within a branch
        for sc in report_scenarios():
            keys = [(c.s_value, c.a1_value) for c in sc.analysis.chains]
            assert all(x < y for x, y in zip(keys, keys[1:])), sc.label

    def test_chain_entry_points_agree_with_the_report_chains(self):
        # sequential_measure and verify_ce2 accept exactly the report's chains, and each leaves its product eigenstate
        disagreements = Counter()
        chains = 0
        scenarios = report_scenarios()[:30]
        for sc in scenarios:
            psi, a = sc.initial_state, sc.obs_a
            report = sc.analysis
            v = a.eigenvectors
            h = PairSpectrumFunction.from_callable(anti_diagonal_index(a), lambda x, s: 3.0 * x - s)
            listed = {(c.s_value, c.a1_value): c for c in report.chains}
            for branch in report.per_sum:
                for n, a1 in enumerate(a.eigenvalues.tolist()):
                    chain = listed.get((branch.s_value, a1))
                    if chain is None:
                        with pytest.raises(ImpossibleOutcomeError):
                            sequential_measure(psi, a, branch.s_value, a1)
                        with pytest.raises(ImpossibleOutcomeError):
                            verify_ce2(psi, a, h, branch.s_value, a1)
                        continue
                    m = a.line_index(chain.a2_value)
                    phi = sequential_measure(psi, a, branch.s_value, a1)
                    answers = {
                        "state": abs(np.vdot(np.kron(v[:, n], v[:, m]), phi.amplitudes)) == pytest.approx(1.0, abs=1e-12),
                        "ce2": verify_ce2(psi, a, h, branch.s_value, a1) == 0.0,
                    }
                    disagreements.update(name for name, agrees in answers.items() if not agrees)
                    chains += 1
        assert chains == sum(len(sc.analysis.chains) for sc in scenarios)
        assert chains > 300
        assert disagreements == Counter()

    @pytest.mark.parametrize(
        "spectrum, merged",
        [
            pytest.param([0.0, 1.0, 2.0 + 3e-9], ((0, 2), (1, 1), (2, 0)), id="merged-lines"),
            pytest.param([-1.0, 0.0, 1.5e-9], ((0, 1), (0, 2), (1, 0), (2, 0)), id="two-pairs-per-row"),
        ],
    )
    def test_merged_lines_keep_the_masked_table_bits(self, spectrum, merged):
        # a merged line adds every pair of a row, as the masked N x N table the branch table replaced did
        a = Observable(np.diag(spectrum))
        index = anti_diagonal_index(a)
        assert merged in index.sets
        f = SpectrumFunction.from_callable(a.eigenvalues, lambda x: x**3 - 2.0 * x)
        fvals = [f(x) for x in a.eigenvalues]
        rng = np.random.default_rng(74)
        for _ in range(5):
            psi = PureState(random_state_vector(rng, 9), factor_dims=(3, 3))
            e, branches = masked_branch_reference(psi, a, fvals)
            assert quantum_conditional_expectation(psi, a, f).entries == tuple(e)
            for k, branch in branches.items():
                want = OutcomeDistribution(tuple(zip(a.eigenvalues.tolist(), branch.sum(axis=1).tolist()))).moments(fvals)
                got = conditional_prediction(psi, a, f, index.sums[k])
                assert (got.mean, got.stdev) == want


def masked_branch_reference(psi: PureState, a: Observable, fvals):
    """e(s_k) entries and each populated line's collapsed N x N table, by the masked-table arithmetic the record replaced.

    W = |K|^2 is scattered onto an N x N array of line labels; p(s_k) is
    ``bincount`` over it, branch k is ``np.where(labels == k, W, 0) / p(s_k)``
    and e(s_k) adds f(a_n) W[n, m] / p(s_k) over every cell with ``np.add.at``.
    """
    index = anti_diagonal_index(a)
    n = a.dim
    labels = np.full((n, n), -1)
    for k, pairs in enumerate(index.sets):
        for row, col in pairs:
            labels[row, col] = k
    v = a.eigenvectors
    coefficients = v.conj().T @ psi.amplitudes.reshape(n, n) @ v.conj()
    w = coefficients.real**2 + coefficients.imag**2
    p = np.clip(np.bincount(labels.ravel(), weights=w.ravel(), minlength=len(index.sums)), 0.0, 1.0)
    possible = p >= ZERO_PROB_THRESHOLD
    weights = np.divide(w, p[labels], out=np.zeros_like(w), where=possible[labels])
    e = np.zeros(len(index.sums))
    np.add.at(e, labels.ravel(), (np.asarray(fvals)[:, None] * weights).ravel())
    kept = np.flatnonzero(possible).tolist()
    return [(index.sums[k], e[k].item()) for k in kept], {k: np.where(labels == k, w, 0.0) / p[k] for k in kept}


class TestTargetSize:
    def test_every_sum_conditioned_entry_point_stays_small_at_n_64(self):
        # the joint table is N x N; the projected-line route held an (N, N, N, N) stack
        n = 64
        rng = np.random.default_rng(94)
        a = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        index = anti_diagonal_index(a)
        f = SpectrumFunction.identity(a.eigenvalues)
        g = SpectrumFunction.identity(index.sums)
        h = PairSpectrumFunction.from_callable(index, lambda x, s: x + s)
        k = len(index.sums) // 2
        s_value = index.sums[k]
        a1_value = index.factor_eigenvalues[index.sets[k][0][0]]
        results = {}
        for name, call in (
            ("distribution", lambda: conditional_distribution(psi, a, s_value)),
            ("prediction", lambda: conditional_prediction(psi, a, f, s_value)),
            ("theorem2", lambda: verify_theorem2(psi, a, s_value)),
            ("chain", lambda: sequential_measure(psi, a, s_value, a1_value)),
            ("table", lambda: quantum_conditional_expectation(psi, a, f)),
            ("tower", lambda: verify_tower_property(psi, a, f, g)),
            ("ce2", lambda: verify_ce2(psi, a, h, s_value, a1_value)),
        ):
            tracemalloc.start()
            try:
                results[name] = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, name
        # the paper's identities still hold at the target size
        scale = float(np.abs(a.eigenvalues).max())
        assert results["theorem2"].mean_identity_residual <= 1e-12 * scale
        assert results["theorem2"].stdev_gap <= 1e-12 * scale
        dist = results["distribution"]
        assert results["prediction"].mean == pytest.approx(float(dist.values @ dist.probabilities), abs=1e-12 * scale)
        assert len(results["table"].entries) == len(index.sums)
        assert results["tower"] <= 1e-10 * scale
        assert results["ce2"] <= 1e-12 * scale
        i, j = index.sets[k][0]
        v = a.eigenvectors
        assert results["chain"].factor_dims == (n, n)
        assert abs(np.vdot(np.kron(v[:, i], v[:, j]), results["chain"].amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_post_chain_checks_measure_no_projected_stack_at_n_64(self):
        # slot 2's probabilities are column norms of psi conj(V): N x N work, where a
        # stack of projected states held a (lines, N, N) array
        n = 64
        rng = np.random.default_rng(95)
        a, b = Observable(random_hermitian(rng, n)), Observable(random_hermitian(rng, n))
        c = Observable(extract_c(a.matrix, b.matrix, 1.0))
        psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
        index = anti_diagonal_index(a)
        k = len(index.sums) // 2
        s_value = index.sums[k]
        a1_value = index.factor_eigenvalues[index.sets[k][0][0]]
        f = SpectrumFunction.identity(a.eigenvalues)
        phi = sequential_measure(psi, a, s_value, a1_value)
        for obs in (a, b):
            obs.eigenvectors
        results = {}
        for name, call in (
            ("prediction", lambda: certain_prediction(phi, a, f, s_value, a1_value)),
            ("audit", lambda: epr_resolution_check(phi, a, b, c)),
        ):
            tracemalloc.start()
            try:
                results[name] = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, name
        # the same numbers as projecting the state on each line of slot 2
        coefficients = phi.amplitudes.reshape(n, n)
        a2 = composite.project_slot(coefficients, a, 2)[0]
        b2 = composite.project_slot(coefficients, b, 2)[0]
        scale = float(np.abs(a.eigenvalues).max())
        assert results["prediction"].value == pytest.approx(float(a.eigenvalues @ a2), abs=1e-12 * scale)
        assert np.abs(results["prediction"].delta_check.probabilities - a2).max() <= 1e-12
        assert results["prediction"].stdev <= 1e-10 * scale
        assert results["audit"].delta_a <= 1e-10 * scale
        b_mean = float(b.eigenvalues @ b2)
        b_stdev = math.sqrt(float(((b.eigenvalues - b_mean) ** 2) @ b2))
        assert results["audit"].delta_b == pytest.approx(b_stdev, abs=1e-12 * float(np.abs(b.eigenvalues).max()))
        assert results["audit"].satisfied
