import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprkit.composite import sum_observable
from eprkit.errors import DimensionMismatchError, SpectrumCoverageError
from eprkit.linalg import Observable, extract_c
from eprkit.states import (
    OutcomeDistribution,
    PureState,
    SpectrumFunction,
    audit_uncertainty,
    best_predictor,
    outcome_probabilities,
    prediction_error,
    uncertainty_report,
    verify_theorem1,
)
from helpers import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    brute_outcome_probs,
    function_matrix,
    random_hermitian,
    random_state_vector,
)


class TestPureState:
    def test_normalizes_and_records_scale(self):
        psi = PureState([3.0, 4.0])
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert psi.norm_scale == pytest.approx(5.0)

    def test_rejects_near_zero_vector(self):
        with pytest.raises(ValueError):
            PureState([1e-9, 0.0])

    def test_rejects_bad_factorization(self):
        with pytest.raises(DimensionMismatchError):
            PureState([1, 0, 0], factor_dims=(2, 2))

    @pytest.mark.parametrize("factor_dims", [(-2, -2), (-1, -4)])
    def test_rejects_factor_dims_below_one(self, factor_dims):
        # each multiplies to the vector's length; (-2, -2) made schmidt_rank raise numpy's reshape error
        with pytest.raises(DimensionMismatchError):
            PureState([1, 0, 0, 1], factor_dims=factor_dims)

    @pytest.mark.parametrize("factor_dims", [(2.9, 2), (True, 4), ("2", "2"), (2, 2.0)])
    def test_rejects_factor_dims_that_are_not_integers(self, factor_dims):
        # int(d) read these as (2, 2), (1, 4), (2, 2) and (2, 2)
        with pytest.raises(DimensionMismatchError, match="factor dim must be an integer"):
            PureState([1, 0, 0, 1], factor_dims=factor_dims)

    def test_numpy_integer_factor_dims_become_ints(self):
        dims = PureState([1, 0, 0, 1], factor_dims=np.array([2, 2])).factor_dims
        assert dims == (2, 2) and all(type(d) is int for d in dims)

    def test_phase_preserved_by_normalization(self):
        phase = np.exp(0.7j)
        psi = PureState(phase * np.array([2.0, 0.0]))
        assert psi.amplitudes[0] == pytest.approx(phase)

    def test_equality_up_to_global_phase(self):
        psi = PureState(random_state_vector(np.random.default_rng(0), 4))
        rotated = PureState(np.exp(1.3j) * psi.amplitudes)
        assert psi.equals_up_to_phase(rotated)
        other = PureState([1, 0, 0, 0])
        assert not psi.equals_up_to_phase(other) or abs(psi.overlap(other)) >= 1 - 1e-10

    def test_amplitudes_readonly(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestOutcomeDistribution:
    def test_requires_increasing_values(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(outcomes=((1.0, 0.5), (1.0, 0.5)))

    def test_requires_unit_total(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(outcomes=((0.0, 0.4), (1.0, 0.4)))

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(outcomes=((0.0, math.nan),))

    @pytest.mark.parametrize(
        "outcomes",
        [
            ((math.nan, 0.5), (1.0, 0.5)),
            ((0.0, 0.5), (math.inf, 0.5)),
            ((-math.inf, 0.5), (1.0, 0.5)),
            ((0.0, -0.5), (1.0, 1.5)),
            ((0.0, math.inf), (1.0, -math.inf)),
        ],
        ids=["nan-value", "inf-value", "minus-inf-value", "negative-probability", "infinite-probabilities"],
    )
    def test_rejects_non_finite_values_and_negative_probabilities(self, outcomes):
        # a NaN value passed the ordering check and turned every moment into NaN,
        # and a negative probability balanced by one above 1 passed the unit-total check
        with pytest.raises(ValueError, match="finite"):
            OutcomeDistribution(outcomes=outcomes)

    def test_arrays_are_built_once_and_read_only(self):
        dist = OutcomeDistribution(outcomes=((-1.0, 0.25), (1.0, 0.75)))
        for name in ("values", "probabilities"):
            first = getattr(dist, name)
            assert getattr(dist, name) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0
        assert dist.values.tolist() == [-1.0, 1.0] and dist.probabilities.tolist() == [0.25, 0.75]
        assert dist.mean_of([2.0, 4.0]) == 3.5

    @pytest.mark.parametrize("method", ["moments", "mean_of"])
    @pytest.mark.parametrize("fvals", [[2.0], [2.0, 4.0, 6.0]], ids=["one", "three"])
    def test_needs_one_function_value_per_outcome(self, method, fvals):
        dist = OutcomeDistribution(outcomes=((-1.0, 0.25), (1.0, 0.75)))
        with pytest.raises(ValueError, match="function values for 2 outcomes"):
            getattr(dist, method)(fvals)

    def test_probability_lookup(self):
        dist = OutcomeDistribution(outcomes=((-1.0, 0.25), (1.0, 0.75)))
        assert dist.probability_of(1.0) == 0.75
        with pytest.raises(SpectrumCoverageError):
            dist.probability_of(0.0)

    def test_probability_lookup_tolerance_scales_with_the_values(self):
        # a value of a 1e12-scale table, as a 15-digit report prints it, still matches
        key = 2.5e12 + 5e-4
        large = OutcomeDistribution(outcomes=((-1e12, 0.25), (key, 0.75)))
        assert large.probability_of(float(f"{key:.15g}")) == 0.75
        # in a 1e-10-scale table a non-member does not match its neighbour
        small = OutcomeDistribution(outcomes=((1e-10, 0.25), (3e-10, 0.75)))
        assert small.probability_of(3e-10) == 0.75
        with pytest.raises(SpectrumCoverageError):
            small.probability_of(2e-10)


class TestSpectrumFunction:
    def test_lookup_tolerance_scales_with_the_keys(self):
        key = 2.5e12 + 5e-4
        large = SpectrumFunction({-1e12: 1.0, key: 2.0})
        assert large(float(f"{key:.15g}")) == 2.0
        assert large.match_tol == pytest.approx(2.5e3)
        small = SpectrumFunction({1e-10: 1.0, 3e-10: 2.0})
        assert small(3e-10) == 2.0
        with pytest.raises(SpectrumCoverageError):
            small(2e-10)
        assert not small.covers([1e-10, 2e-10])
        # squaring keeps the keys, so it keeps the default tolerance
        squared = small.squared()
        assert squared.match_tol == small.match_tol
        assert (squared(1e-10), squared(3e-10)) == (1.0, 4.0)
        with pytest.raises(SpectrumCoverageError):
            squared(2e-10)

    @pytest.mark.parametrize(
        "table",
        [
            {math.inf: 1.0, 1.0: 2.0},
            {-math.inf: 1.0, 1.0: 2.0},
            {math.nan: 1.0, 1.0: 2.0},
            {1.0: math.nan, -1.0: 0.0},
            {1.0: math.inf, -1.0: 0.0},
        ],
        ids=["inf-key", "minus-inf-key", "nan-key", "nan-value", "inf-value"],
    )
    def test_rejects_non_finite_keys_and_values(self, table):
        # an infinite key made the tolerance infinite, so every lookup matched,
        # and a NaN value flowed into every mean taken over the table
        with pytest.raises(ValueError, match="finite"):
            SpectrumFunction(table)

    def test_squared_overflow_raises_value_error(self):
        # float ** 2 beyond the float range raised OverflowError, not the table's ValueError
        with pytest.raises(ValueError, match="finite"):
            SpectrumFunction({1.0: 1e200, 2.0: 1.0}).squared()
        assert SpectrumFunction({1.0: -1e154}).squared()(1.0) == (-1e154) ** 2

    def test_squared_is_the_correctly_rounded_product(self):
        # float ** 2 is C pow, which (glibc's) rounds this square up a last bit: 2.6710183769648842e+48
        x = 1.6343250524191581e24
        assert SpectrumFunction({1.0: x}).squared()(1.0) == x * x

    def test_lookup_of_another_shape_matches_no_key(self):
        # x was broadcast against the keys, so a pair matched a number key and a number a pair key
        for table, x in [({1.0: 2.0}, (1.0, 1.0)), ({(1.0, 1.0): 3.0}, 1.0), ({(1.0, 1.0): 3.0}, (1.0, 1.0, 1.0))]:
            with pytest.raises(SpectrumCoverageError, match="shape"):
                SpectrumFunction(table)(x)
        assert not SpectrumFunction({1.0: 2.0}).covers([(1.0, 1.0)])
        assert SpectrumFunction({(1.0, 1.0): 3.0}).covers([(1.0, 1.0)])


class TestOutcomeProbabilities:
    def test_eigenstate_is_point_mass(self):
        dist = outcome_probabilities(PureState([1.0, 0.0]), Observable(PAULI_Z))
        assert dist.outcomes == ((-1.0, 0.0), (1.0, 1.0))

    def test_singlet_like_state_pins_sum_to_zero(self):
        # (|1,-1> + |-1,1>)/sqrt(2); cross-checked by brute-force enumeration
        psi = PureState(np.array([0, 1, 1, 0]) / np.sqrt(2), factor_dims=(2, 2))
        s = sum_observable(Observable(PAULI_Z))
        dist = outcome_probabilities(psi, s)
        brute = brute_outcome_probs(psi.amplitudes, s.matrix)
        for value, probability in dist.outcomes:
            assert probability == pytest.approx(brute[round(value, 9)], abs=1e-12)
        assert dist.probability_of(0.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.probability_of(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_amplitudes_quarter_half_quarter(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        s = sum_observable(Observable(PAULI_Z))
        dist = outcome_probabilities(psi, s)
        brute = brute_outcome_probs(psi.amplitudes, s.matrix)
        assert brute == pytest.approx({-2.0: 0.25, 0.0: 0.5, 2.0: 0.25}, abs=1e-12)
        assert dist.probabilities == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            outcome_probabilities(PureState([1, 0, 0]), Observable(PAULI_Z))

    def test_agrees_with_brute_force_on_random_input(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n))
            dist = outcome_probabilities(psi, obs)
            brute = brute_outcome_probs(psi.amplitudes, obs.matrix)
            assert dist.probabilities == pytest.approx(list(brute.values()), abs=1e-10)


class TestBestPredictor:
    def test_eigenstate_identity(self):
        obs = Observable(PAULI_Z)
        f = SpectrumFunction.identity(obs.eigenvalues)
        assert best_predictor(PureState([1.0, 0.0]), obs, f) == pytest.approx(1.0)

    def test_weighted_two_branch_state(self):
        # |gamma(1,-1)|^2 = 0.8 and |gamma(-1,1)|^2 = 0.2 gives 0.8 - 0.2 = 0.6
        psi = PureState([0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0], factor_dims=(2, 2))
        a1 = Observable(np.kron(PAULI_Z, np.eye(2)))
        f = SpectrumFunction.identity(a1.eigenvalues)
        value = best_predictor(psi, a1, f)
        assert value == pytest.approx(0.6, abs=1e-12)
        brute = brute_outcome_probs(psi.amplitudes, a1.matrix)
        assert value == pytest.approx(sum(v * p for v, p in brute.items()), abs=1e-12)

    def test_constant_function(self):
        rng = np.random.default_rng(30)
        obs = Observable(random_hermitian(rng, 4))
        psi = PureState(random_state_vector(rng, 4))
        f = SpectrumFunction.constant(obs.eigenvalues, 7.25)
        assert best_predictor(psi, obs, f) == pytest.approx(7.25, abs=1e-12)

    def test_missing_eigenvalue_rejected(self):
        obs = Observable(PAULI_Z)
        with pytest.raises(SpectrumCoverageError):
            best_predictor(PureState([1.0, 0.0]), obs, SpectrumFunction({1.0: 1.0}))

    def test_spectral_sum_equals_quadratic_form(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n))
            f = SpectrumFunction.from_callable(obs.eigenvalues, lambda a: a * a - 2 * a + 0.5)
            spectral = best_predictor(psi, obs, f)
            quadratic = float(np.real(psi.expectation(function_matrix(obs, f))))
            assert spectral == pytest.approx(quadratic, abs=1e-10)

    def test_is_the_mean_of_the_distribution_moments(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n))
            f = SpectrumFunction.from_callable(obs.eigenvalues, lambda a: a * a - 2 * a + 0.5)
            fvals = [f(v) for v in obs.eigenvalues]
            assert best_predictor(psi, obs, f) == outcome_probabilities(psi, obs).moments(fvals)[0]


class TestPredictionError:
    def test_eigenstate_has_zero_error(self):
        assert prediction_error(PureState([0.0, 1.0]), Observable(PAULI_Z)) == 0.0

    def test_weighted_state(self):
        # alpha_1 = 0.6 so the error is sqrt(1 - 0.36) = 0.8
        psi = PureState([0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0], factor_dims=(2, 2))
        a1 = Observable(np.kron(PAULI_Z, np.eye(2)))
        assert prediction_error(psi, a1) == pytest.approx(0.8, abs=1e-12)

    def test_balanced_superposition(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        assert prediction_error(psi, Observable(PAULI_Z)) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_variance_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        obs = Observable(random_hermitian(rng, n))
        psi = PureState(random_state_vector(rng, n))
        ident = SpectrumFunction.identity(obs.eigenvalues)
        second = best_predictor(psi, obs, ident.squared())
        first = best_predictor(psi, obs, ident)
        assert prediction_error(psi, obs) ** 2 == pytest.approx(second - first**2, abs=1e-10)


class TestAuditUncertainty:
    def test_pauli_branch_state(self):
        psi = PureState([0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0], factor_dims=(2, 2))
        eye = np.eye(2)
        report = audit_uncertainty(
            psi,
            Observable(np.kron(PAULI_Z, eye)),
            Observable(np.kron(PAULI_X, eye)),
            Observable(np.kron(PAULI_Y, eye)),
        )
        assert report.delta_a * report.delta_b == pytest.approx(0.8, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.satisfied

    def test_eigenstate_rhs_vanishes(self):
        # in an A eigenstate <C> is a diagonal element of C in A's basis, hence 0
        rng = np.random.default_rng(40)
        a = Observable(random_hermitian(rng, 4))
        b = Observable(random_hermitian(rng, 4))
        c = Observable(extract_c(a.matrix, b.matrix, 1.0))
        eigenstate = PureState(a.eigenvectors[:, 2])
        report = audit_uncertainty(eigenstate, a, b, c)
        assert report.rhs <= 1e-10
        assert report.delta_a <= 1e-10
        assert report.satisfied

    def test_balanced_qubit(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        report = audit_uncertainty(psi, Observable(PAULI_Z), Observable(PAULI_X), Observable(PAULI_Y))
        assert report.delta_a == pytest.approx(1.0, abs=1e-12)
        assert report.delta_b == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.satisfied

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bound_always_holds_for_derived_triples(self, seed):
        # the bound is a theorem for alpha = 1; a violation is an implementation bug
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = Observable(random_hermitian(rng, n))
        b = Observable(random_hermitian(rng, n))
        c = Observable(extract_c(a.matrix, b.matrix, 1.0))
        psi = PureState(random_state_vector(rng, n))
        assert audit_uncertainty(psi, a, b, c).satisfied

    def test_slack_scales_with_the_largest_entry_of_c(self):
        # a vanishing bound's right-hand side rounds to about eps * |C|: 1e-10 absolute rejects it once |C| ~ 1e6
        assert uncertainty_report(0.0, 1e3, 1e-8, 1e6).satisfied
        assert not uncertainty_report(0.0, 1e3, 1e-8, 1.0).satisfied
        # below |C| = 1 the slack stays the absolute 1e-10
        assert uncertainty_report(0.0, 1.0, 0.9e-10, 1e-6).satisfied
        assert not uncertainty_report(0.0, 1.0, 1.1e-10, 1e-6).satisfied


class TestVerifyTheorem1:
    def test_pauli_pair_is_exact(self):
        report = verify_theorem1(Observable(PAULI_Z), Observable(PAULI_X), alpha=2.0)
        assert report.trace_residual == 0.0
        assert report.max_diag_residual <= 1e-15
        assert not report.a_degenerate

    def test_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = Observable(random_hermitian(rng, n))
            b = Observable(random_hermitian(rng, n))
            report = verify_theorem1(a, b, alpha=1.0)
            assert report.trace_residual <= 1e-10 * report.c_norm
            assert report.max_diag_residual <= 1e-10 * report.c_norm

    def test_identity_first_operand(self):
        report = verify_theorem1(Observable(np.eye(3)), Observable(random_hermitian(np.random.default_rng(2), 3)))
        assert report.trace_residual == 0.0
        assert report.max_diag_residual == 0.0
        assert report.a_degenerate
