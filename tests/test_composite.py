import struct

import numpy as np
import pytest

from eprkit.composite import (
    PROJECTOR_TOL,
    ZERO_PROB_THRESHOLD,
    anti_diagonal_index,
    anti_diagonals,
    from_eigenbasis,
    lift,
    line_totals,
    post_measurement_state,
    project_slot,
    schmidt_rank,
    sum_observable,
)
from eprkit.conditional import verify_tower_property
from eprkit.errors import (
    DegenerateSpectrumError,
    ImpossibleOutcomeError,
)
from eprkit.linalg import Observable
from eprkit.states import PureState, SpectrumFunction, outcome_probabilities, projected_probabilities
from helpers import (
    MULTIPLICITY_PATTERNS,
    PAULI_Z,
    brute_joint_probs,
    brute_sum_distribution,
    observable_with_multiplicities,
    per_matrix_from_eigenbasis,
    per_matrix_projected,
    project_sum,
    random_hermitian,
    random_state_vector,
    reference_anti_diagonals,
)


def pauli_a() -> Observable:
    return Observable(PAULI_Z)


def sum_lines(psi: PureState, obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """``project_sum`` of the state's coefficient matrix: each sum line's probability and projected matrix."""
    n = obs.dim
    return project_sum(psi.amplitudes.reshape(n, n), obs)


def joint_from_sum_lines(psi: PureState, obs: Observable) -> np.ndarray:
    """q[n, m] read off the sum lines: line k holds at most one pair (n, m) per row, so A(1) on it gives q[n, m]."""
    q = np.zeros((obs.dim, obs.dim))
    _, lines = sum_lines(psi, obs)
    for line, pairs in zip(lines, anti_diagonal_index(obs).sets):
        row_weights = project_slot(line, obs, 1)[0]
        for n, m in pairs:
            q[n, m] = row_weights[n]
    return q


def populated_branches(psi: PureState, obs: Observable) -> list[tuple[float, np.ndarray]]:
    """(sqrt(p(s_k)), P_k psi / sqrt(p(s_k))) of every sum line above the zero threshold, as flat vectors."""
    probs, lines = sum_lines(psi, obs)
    return [
        (float(np.sqrt(p)), line.reshape(-1) / np.sqrt(p))
        for p, line in zip(probs.tolist(), lines)
        if p >= ZERO_PROB_THRESHOLD
    ]


class TestAntiDiagonals:
    def test_qubit_spectrum(self):
        idx = anti_diagonals([-1.0, 1.0])
        assert idx.sums == (-2.0, 0.0, 2.0)
        assert idx.degeneracies == (1, 2, 1)
        assert idx.sets[1] == ((0, 1), (1, 0))

    def test_three_level_spectrum(self):
        idx = anti_diagonals([1.0, 2.0, 3.0])
        assert idx.sums == (2.0, 3.0, 4.0, 5.0, 6.0)
        assert idx.degeneracies == (1, 2, 3, 2, 1)
        # brute enumeration of the same structure
        seen = {}
        for i, a in enumerate([1.0, 2.0, 3.0]):
            for j, b in enumerate([1.0, 2.0, 3.0]):
                seen.setdefault(a + b, set()).add((i, j))
        for s, members in zip(idx.sums, idx.sets):
            assert set(members) == seen[s]

    def test_singleton(self):
        idx = anti_diagonals([0.5])
        assert idx.sums == (1.0,)
        assert idx.degeneracies == (1,)

    def test_endpoints_and_partition(self):
        rng = np.random.default_rng(50)
        spectrum = np.sort(rng.standard_normal(5))
        idx = anti_diagonals(spectrum)
        assert idx.sums[0] == pytest.approx(2 * spectrum[0])
        assert idx.sums[-1] == pytest.approx(2 * spectrum[-1])
        all_pairs = [pair for members in idx.sets for pair in members]
        assert sorted(all_pairs) == [(i, j) for i in range(5) for j in range(5)]
        assert sum(idx.degeneracies) == 25

    def test_line_sums_have_the_bits_of_one_np_mean_per_line(self):
        # equally spaced spectra give lines of 1 to N pairs, generic ones lines of 1 and 2, 1e-12 jitter
        # near-coincident pair sums; each line's sum must be np.mean of its sorted pair sums
        rng = np.random.default_rng(53)
        sizes = set()
        for scale in (1.0, 1e-9, 1e150):
            for n in range(2, 9):
                for spectrum in (
                    np.sort(rng.standard_normal(n)),
                    np.arange(n) * rng.uniform(0.5, 2.0) + rng.uniform(-3, 3),
                    np.arange(n) + rng.uniform(-1e-12, 1e-12, n),
                ):
                    spectrum = spectrum * scale
                    idx = anti_diagonals(spectrum)
                    want = reference_anti_diagonals(spectrum)
                    assert [struct.pack("<d", s) for s in idx.sums] == [struct.pack("<d", s) for s in want.sums]
                    sizes.update(idx.degeneracies)
        assert sizes == set(range(1, 9))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            anti_diagonals([1.0, 0.0])

    @pytest.mark.parametrize(
        "spectrum",
        [
            # the middle line has 8 members, which np.mean adds pairwise
            pytest.param(np.arange(8) * 0.1 + 0.3, id="equal-8"),
            pytest.param((np.arange(16) - 7.5) * 0.7, id="equal-16"),  # lines of 9 to 16 members
            pytest.param(np.sort(np.random.default_rng(51).uniform(-6, 6, 6)), id="generic-6"),
            pytest.param(np.sort(np.random.default_rng(52).standard_normal(12)) * 1e-9, id="generic-12-tiny"),
            pytest.param(1.0 + np.arange(12) * 1e-11, id="merged-144"),  # one line of N^2 pairs
            pytest.param(np.array([-0.0, 1.0]), id="negative-zero"),
            pytest.param(np.array([2.5]), id="singleton"),
        ],
    )
    def test_matches_the_pair_loop_bit_for_bit(self, spectrum):
        idx = anti_diagonals(spectrum)
        want = reference_anti_diagonals(spectrum)
        assert [struct.pack("<d", s) for s in idx.sums] == [struct.pack("<d", s) for s in want.sums]
        assert idx.sets == want.sets
        assert idx.match_tol == want.match_tol
        assert idx.factor_eigenvalues == want.factor_eigenvalues
        # pairs lists each pair with its line, in the order of sets, and cannot be changed through the shared index
        assert idx.pairs.T.tolist() == [[k, n, m] for k, members in enumerate(want.sets) for n, m in members]
        assert not idx.pairs.flags.writeable

    def test_counting_predicate(self):
        idx = anti_diagonals([-1.0, 1.0])
        assert idx.chi(1.0, 0.0)
        assert idx.chi(-1.0, 0.0)
        assert idx.chi(1.0, 2.0)
        assert not idx.chi(-1.0, 2.0)
        assert not idx.chi(1.0, 0.5)


class TestLift:
    def test_slot_one(self):
        lifted = lift(pauli_a(), 1)
        assert np.allclose(lifted.matrix, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_slot_two(self):
        lifted = lift(pauli_a(), 2)
        assert np.allclose(lifted.matrix, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_identity(self):
        assert np.allclose(lift(Observable(np.eye(2)), 1).matrix, np.eye(4))

    def test_spectrum_preserved_with_scaled_multiplicity(self):
        rng = np.random.default_rng(51)
        obs = Observable(random_hermitian(rng, 3))
        lifted = lift(obs, 1)
        assert lifted.eigenvalues == pytest.approx(obs.eigenvalues, abs=1e-10)
        assert lifted.multiplicities == (3, 3, 3)

    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            lift(pauli_a(), 3)

    @pytest.mark.parametrize("slot", [1, 2])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_lines_match_the_eigensolver_on_the_lifted_matrix(self, n, slot):
        # the lift takes its lines from the factor; a fresh eigh of kron(X, I) is the reference
        rng = np.random.default_rng(70 + n)
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        degenerate = u @ np.diag([1.0, 1.0] + [0.0] * (n - 2)) @ u.conj().T
        for m in (random_hermitian(rng, n), degenerate, random_hermitian(rng, n) * 1e-9, random_hermitian(rng, n) * 1e3):
            obs = Observable(m)
            lifted = lift(obs, slot)
            reference = Observable(lifted.matrix)
            radius = float(np.abs(reference.eigenvalues).max())
            assert lifted.multiplicities == reference.multiplicities
            assert lifted.multiplicities == tuple(n * k for k in obs.multiplicities)
            assert np.abs(lifted.eigenvalues - reference.eigenvalues).max() <= 1e-12 * radius
            assert lifted.projectors.shape == reference.projectors.shape
            assert np.abs(lifted.projectors - reference.projectors).max() <= 1e-10
            assert "_eigh" not in vars(lifted)  # its lines and projectors were read without an eigensolver

    def test_slots_commute(self):
        rng = np.random.default_rng(52)
        obs = Observable(random_hermitian(rng, 3))
        one = lift(obs, 1).matrix
        two = lift(obs, 2).matrix
        assert np.abs(one @ two - two @ one).max() <= 1e-12


class TestSumObservable:
    def test_pauli_structure(self):
        s = sum_observable(pauli_a())
        assert list(s.eigenvalues) == [-2.0, 0.0, 2.0]
        assert s.multiplicities == (1, 2, 1)

    def test_three_level_diagonal(self):
        s = sum_observable(Observable(np.diag([1.0, 2.0, 3.0])))
        assert list(s.eigenvalues) == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert s.multiplicities == (1, 2, 3, 2, 1)

    def test_identity_factor(self):
        s = sum_observable(Observable(np.eye(3)))
        assert list(s.eigenvalues) == [2.0]
        assert s.multiplicities == (9,)
        assert np.allclose(s.matrix, 2 * np.eye(9))

    def test_matches_direct_spectral_decomposition(self):
        # anti-diagonal construction vs re-decomposing the assembled matrix
        rng = np.random.default_rng(53)
        obs = Observable(random_hermitian(rng, 4))
        s = sum_observable(obs)
        direct = Observable(s.matrix)
        assert direct.eigenvalues == pytest.approx(s.eigenvalues, abs=1e-9)
        assert direct.multiplicities == s.multiplicities
        assert s.projectors.shape == direct.projectors.shape
        assert np.abs(s.projectors - direct.projectors).max() <= 1e-9
        assert "_eigh" not in vars(s)

    def test_projector_family_is_complete_and_orthogonal(self):
        # collapses use these lines without re-checking them, so each must be a Hermitian
        # idempotent, and each family an orthogonal resolution of the identity
        rng = np.random.default_rng(54)
        for n in range(2, 9):
            u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            equally_spaced = u @ np.diag(np.arange(n) - (n - 1) / 2) @ u.conj().T
            for m in (random_hermitian(rng, n), equally_spaced):
                obs = Observable(m)
                for family in (sum_observable(obs).projectors, lift(obs, 1).projectors):
                    total = np.zeros((n * n, n * n), dtype=complex)
                    for i, p in enumerate(family):
                        assert np.abs(p - p.conj().T).max() <= PROJECTOR_TOL
                        total += p
                        for j, q in enumerate(family):
                            expected = p if i == j else 0.0
                            assert np.abs(p @ q - expected).max() <= PROJECTOR_TOL
                    assert np.abs(total - np.eye(n * n)).max() <= PROJECTOR_TOL


class TestJointDistribution:
    def test_product_state_indicator(self):
        # |a_2(1), a_1(2)> for sigma_z: +1 on factor 1, -1 on factor 2
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        expected = np.zeros((2, 2))
        expected[1, 0] = 1.0
        assert np.allclose(joint_from_sum_lines(psi, pauli_a()), expected, atol=1e-12)

    def test_uniform_amplitudes(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        assert np.allclose(joint_from_sum_lines(psi, pauli_a()), np.full((2, 2), 0.25), atol=1e-12)

    def test_two_branch_state(self):
        psi = PureState([0.0, np.sqrt(0.8), np.sqrt(0.2), 0.0], factor_dims=(2, 2))
        q = joint_from_sum_lines(psi, pauli_a())
        assert q[1, 0] == pytest.approx(0.8, abs=1e-12)
        assert q[0, 1] == pytest.approx(0.2, abs=1e-12)
        assert q[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert q[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate_factor(self):
        # the tower check reads the joint weights in A's eigenbasis, which a degenerate A does not fix
        psi = PureState(random_state_vector(np.random.default_rng(55), 4), factor_dims=(2, 2))
        obs = Observable(np.eye(2))
        f = SpectrumFunction.identity(obs.eigenvalues)
        g = SpectrumFunction.identity(anti_diagonal_index(obs).sums)
        with pytest.raises(DegenerateSpectrumError):
            verify_tower_property(psi, obs, f, g)

    def test_rejects_nan_probability(self):
        # joint weights come from a state's amplitudes, and a state rejects a NaN amplitude
        with pytest.raises(ValueError):
            PureState([np.nan, 0.0, 0.0, 1.0], factor_dims=(2, 2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            _, brute = brute_joint_probs(psi.amplitudes, obs.matrix)
            assert np.abs(joint_from_sum_lines(psi, obs) - brute).max() <= 1e-10


class TestSumProbabilities:
    def test_uniform_joint(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        probs, _ = sum_lines(psi, pauli_a())
        assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_concentrated_joint(self):
        psi = PureState([1.0, 0.0, 0.0, 0.0], factor_dims=(2, 2))
        obs = pauli_a()
        probs, _ = sum_lines(psi, obs)
        assert probs[anti_diagonal_index(obs).sum_index(2.0)] == pytest.approx(1.0, abs=1e-12)

    def test_two_branch_state_mass_at_zero(self):
        psi = PureState([0.0, np.sqrt(0.8), np.sqrt(0.2), 0.0], factor_dims=(2, 2))
        obs = pauli_a()
        probs, _ = sum_lines(psi, obs)
        assert probs[anti_diagonal_index(obs).sum_index(0.0)] == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_projector_route(self):
        # the factor-space sum lines against the dense sum projectors and a brute-force enumeration
        rng = np.random.default_rng(57)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            probs, _ = sum_lines(psi, obs)
            via_projectors = outcome_probabilities(psi, sum_observable(obs))
            assert probs == pytest.approx(via_projectors.probabilities, abs=1e-10)
            brute = brute_sum_distribution(psi.amplitudes, obs.matrix)
            assert sorted(brute) == pytest.approx(anti_diagonal_index(obs).sums, abs=1e-8)
            assert probs == pytest.approx(list(brute.values()), abs=1e-10)


class TestEigenspaceProjector:
    def test_pauli_projectors(self):
        s = sum_observable(pauli_a())
        assert np.allclose(s.projectors[1], np.diag([0.0, 1.0, 1.0, 0.0]))
        assert np.allclose(s.projectors[2], np.diag([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(s.projectors[0], np.diag([0.0, 0.0, 0.0, 1.0]))

    def test_identity_factor_projector(self):
        s = sum_observable(Observable(np.eye(2)))
        assert np.allclose(s.projectors[0], np.eye(4))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            sum_observable(pauli_a()).projectors[3]


class TestPostMeasurementState:
    def test_general_two_qubit_collapse(self):
        rng = np.random.default_rng(58)
        amplitudes = random_state_vector(rng, 4)
        psi = PureState(amplitudes, factor_dims=(2, 2))
        s = sum_observable(pauli_a())
        collapsed, prob = post_measurement_state(psi, s.projectors[1])
        weight = abs(amplitudes[1]) ** 2 + abs(amplitudes[2]) ** 2
        assert prob == pytest.approx(weight, abs=1e-12)
        expected = np.array([0.0, amplitudes[1], amplitudes[2], 0.0]) / np.sqrt(weight)
        assert np.allclose(collapsed.amplitudes, expected, atol=1e-12)

    def test_eigenstate_unchanged(self):
        psi = PureState([0.0, 1.0, 0.0, 0.0], factor_dims=(2, 2))
        s = sum_observable(pauli_a())
        collapsed, prob = post_measurement_state(psi, s.projectors[1])
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert collapsed.equals_up_to_phase(psi)

    def test_orthogonal_state_rejected(self):
        psi = PureState([1.0, 0.0, 0.0, 0.0], factor_dims=(2, 2))
        s = sum_observable(pauli_a())
        with pytest.raises(ImpossibleOutcomeError):
            post_measurement_state(psi, s.projectors[1])

    def test_non_projector_rejected(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            post_measurement_state(psi, 0.5 * np.eye(2))

    def test_nan_idempotence_residual_rejected(self):
        # P @ P overflows to NaN entries here, so P @ P - P is NaN, not a small residual
        x = 1e200
        p = np.array([[x, x + 1j * x], [x - 1j * x, x]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.abs(p @ p - p)).any()
            with pytest.raises(ValueError, match="idempotent"):
                post_measurement_state(PureState([1.0, 0.0]), p)

    def test_trace_formula_matches_probability(self):
        # tr(P |psi><psi|) is the same number as the collapse probability
        rng = np.random.default_rng(59)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            obs = Observable(random_hermitian(rng, n))
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            s = sum_observable(obs)
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            dist = outcome_probabilities(psi, s)
            for k, projector in enumerate(s.projectors):
                trace = float(np.real(np.trace(projector @ rho)))
                assert trace == pytest.approx(dist.outcomes[k][1], abs=1e-10)


class TestDecomposeBySum:
    def test_uniform_weights(self):
        psi = PureState(np.full(4, 0.5), factor_dims=(2, 2))
        weights = [w for w, _ in populated_branches(psi, pauli_a())]
        assert weights == pytest.approx([0.5, np.sqrt(0.5), 0.5], abs=1e-12)

    def test_eigenstate_single_branch(self):
        psi = PureState([0.0, 0.0, 0.0, 1.0], factor_dims=(2, 2))
        branches = populated_branches(psi, pauli_a())
        assert len(branches) == 1
        assert branches[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_branch_omitted(self):
        psi = PureState([0.0, np.sqrt(0.8), np.sqrt(0.2), 0.0], factor_dims=(2, 2))
        branches = populated_branches(psi, pauli_a())
        assert len(branches) == 1
        assert branches[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_and_branch_structure(self):
        # the sum lines add back to psi, and each populated line is an eigenvector of the dense S
        rng = np.random.default_rng(60)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            obs = Observable(random_hermitian(rng, n))
            s = sum_observable(obs)
            psi = PureState(random_state_vector(rng, n * n), factor_dims=(n, n))
            _, lines = sum_lines(psi, obs)
            assert np.linalg.norm(lines.sum(axis=0).reshape(-1) - psi.amplitudes) <= 1e-10
            branches = populated_branches(psi, obs)
            rebuilt = sum(w * branch for w, branch in branches)
            assert np.linalg.norm(rebuilt - psi.amplitudes) <= 1e-10
            for i, (_, branch) in enumerate(branches):
                s_val = float(np.real(np.vdot(branch, s.matrix @ branch)))
                assert np.linalg.norm(s.matrix @ branch - s_val * branch) <= 1e-9
                for _, other in branches[i + 1 :]:
                    assert abs(np.vdot(branch, other)) <= 1e-10


class TestSchmidtRank:
    def test_product_state(self):
        psi = PureState(np.kron([1.0, 0.0], [0.6, 0.8]), factor_dims=(2, 2))
        assert schmidt_rank(psi) == 1

    def test_singlet_like_state(self):
        psi = PureState(np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2), factor_dims=(2, 2))
        assert schmidt_rank(psi) == 2
        singular = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
        assert np.count_nonzero(singular > 1e-10) == 2

    def test_collapsed_branch_is_entangled(self):
        psi = PureState([0.0, np.sqrt(0.8), np.sqrt(0.2), 0.0], factor_dims=(2, 2))
        assert schmidt_rank(psi) == 2


class TestLineTotals:
    @pytest.mark.parametrize("eigenvalues", [[-1.0, 0.5, 2.0, 3.0], [-1.0, 2.0, 2.0, 3.0]], ids=["distinct", "repeated"])
    def test_equals_the_sum_over_each_line(self, eigenvalues):
        # one eigenvector per line returns the weights themselves; a repeated eigenvalue adds its two
        rng = np.random.default_rng(60)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        obs = Observable(u @ np.diag(eigenvalues) @ u.conj().T)
        weights = rng.random((4, 4))
        starts = np.cumsum((0, *obs.multiplicities[:-1]))
        for axis in (0, 1):
            totals = line_totals(weights, obs, axis=axis)
            assert np.array_equal(totals, np.add.reduceat(weights, starts, axis=axis))
        assert (line_totals(weights, obs) is weights) == (len(obs.multiplicities) == 4)



def _random_stack(rng: np.random.Generator, states: int, n: int) -> np.ndarray:
    return rng.standard_normal((states, n, n)) + 1j * rng.standard_normal((states, n, n))


class TestRowStackedProducts:
    """The row-stacked products carry the bits of the per-matrix products, compared byte for byte."""

    @pytest.mark.parametrize("multiplicities", MULTIPLICITY_PATTERNS, ids=str)
    def test_project_slot_has_the_bits_of_each_matrix_product(self, multiplicities):
        # every state count up to N(N+1)/2, the most branches a generic A keeps
        rng = np.random.default_rng([41, *multiplicities])
        obs = observable_with_multiplicities(rng, multiplicities)
        n, lines = obs.dim, len(multiplicities)
        for states in range(1, n * (n + 1) // 2 + 1):
            psi = _random_stack(rng, states, n)
            for slot in (1, 2):
                probabilities, projected = project_slot(psi, obs, slot)
                expected = per_matrix_projected(psi, obs.projectors, slot)
                assert projected.shape == expected.shape
                assert np.ascontiguousarray(projected).tobytes() == expected.tobytes(), (states, slot)
                # spectral_moments of a transposed table can move a bit, so the table is C-ordered
                assert probabilities.shape == (states, lines) and probabilities.flags.c_contiguous
                assert probabilities.tobytes() == projected_probabilities(expected.reshape(states, lines, -1)).tobytes()

    def test_project_slot_keeps_every_leading_axis(self):
        # a (2, 3) grid of states measures as the six states in a row
        rng = np.random.default_rng(42)
        obs = observable_with_multiplicities(rng, (1, 2, 1))
        psi = _random_stack(rng, 6, 4).reshape(2, 3, 4, 4)
        for slot in (1, 2):
            probabilities, projected = project_slot(psi, obs, slot)
            flat = project_slot(psi.reshape(6, 4, 4), obs, slot)
            assert probabilities.shape == (2, 3, 3) and projected.shape == (2, 3, 3, 4, 4)
            assert probabilities.flags.c_contiguous
            assert probabilities.tobytes() == flat[0].tobytes()
            assert np.ascontiguousarray(projected).tobytes() == np.ascontiguousarray(flat[1]).tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_from_eigenbasis_has_the_bits_of_each_matrix_product(self, n):
        rng = np.random.default_rng([43, n])
        a = Observable(random_hermitian(rng, n))
        v = a.eigenvectors
        for states in range(1, n * (n + 1) // 2 + 1):
            dense = _random_stack(rng, states, n)
            # the analysis scatters each branch's pairs into an otherwise zero matrix
            sparse = np.where(rng.random((states, n, n)) < 0.2, dense, 0.0)
            for coefficients in (dense, sparse):
                assert from_eigenbasis(coefficients, a).tobytes() == per_matrix_from_eigenbasis(v, coefficients).tobytes()
