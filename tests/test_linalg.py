import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprkit.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NonHermitianError,
    SpectrumCoverageError,
)
from eprkit.linalg import (
    Observable,
    commutator,
    default_grouping_tol,
    extract_c,
    group_close_values,
    group_means,
    is_hermitian,
    match_value,
    phase_fix,
    tensor_product,
)
from helpers import PAULI_X, PAULI_Y, PAULI_Z, random_hermitian


class TestTensorProduct:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_with_identity(self):
        # expanded by hand: first factor varies slowest
        expected = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        assert np.allclose(tensor_product(PAULI_Z, np.eye(2)), expected)

    def test_two_qubit_sum_eigenvalues(self):
        total = tensor_product(PAULI_Z, np.eye(2)) + tensor_product(np.eye(2), PAULI_Z)
        assert np.allclose(total, np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_index_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        out = tensor_product(a, b)
        # entry ((i1*2 + i2), (j1*2 + j2)) = a[i1, j1] * b[i2, j2]
        assert out[1 * 2 + 0, 0 * 2 + 1] == a[1, 0] * b[0, 1]

    def test_bilinear(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        c = random_hermitian(rng, 2)
        left = tensor_product(a, 2.0 * b + c)
        right = 2.0 * tensor_product(a, b) + tensor_product(a, c)
        assert np.allclose(left, right, atol=1e-12)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        lhs = tensor_product(a, np.eye(3)) @ tensor_product(np.eye(3), b)
        assert np.abs(lhs - tensor_product(a, b)).max() <= 1e-12

    def test_associative_up_to_reassociation(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        assert np.allclose(
            tensor_product(tensor_product(a, b), c),
            tensor_product(a, tensor_product(b, c)),
            atol=1e-12,
        )

    def test_rejects_nonfinite(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            tensor_product(bad, np.eye(2))


class TestCommutator:
    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 4)
        assert np.abs(commutator(np.eye(4), m)).max() == 0.0

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 3)
        assert np.abs(commutator(m, m)).max() == 0.0

    def test_pauli_algebra(self):
        assert np.allclose(commutator(PAULI_Z, PAULI_X), 2j * PAULI_Y)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))


class TestExtractC:
    def test_pauli_triple(self):
        assert np.allclose(extract_c(PAULI_Z, PAULI_X, 2.0), PAULI_Y)

    def test_sigma_z_sigma_y(self):
        # [sigma_z, sigma_y] = -2i sigma_x, computed by hand
        assert np.allclose(extract_c(PAULI_Z, PAULI_Y, 2.0), -PAULI_X)

    def test_commuting_pair_gives_zero(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 3)
        assert np.abs(extract_c(m, m, 1.0)).max() == 0.0

    def test_result_is_hermitian(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert is_hermitian(extract_c(a, b, 1.0))

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            extract_c(PAULI_Z, PAULI_X, 0.0)

    def test_non_hermitian_rejected(self):
        upper = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            extract_c(upper, PAULI_X, 1.0)

    def test_overflowing_quotient_rejected(self):
        # [Z, X] / (i * 5e-324) overflows; the pytest filter turns any numpy warning into an error
        with pytest.raises(ValueError, match="overflows"):
            extract_c(PAULI_Z, PAULI_X, 5e-324)


class TestIsHermitian:
    def test_sigma_y(self):
        assert is_hermitian(PAULI_Y)

    def test_strictly_upper_entry(self):
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            is_hermitian(np.zeros((2, 3)))


class TestSpectralDecompose:
    def test_sigma_z(self):
        obs = Observable(PAULI_Z)
        assert obs.eigenvalues.tolist() == [-1.0, 1.0]
        assert obs.multiplicities == (1, 1)

    def test_identity_is_one_line(self):
        obs = Observable(np.eye(5))
        assert len(obs.eigenvalues) == 1
        assert obs.eigenvalues[0] == pytest.approx(1.0)
        assert obs.multiplicities == (5,)
        assert obs.projectors.shape == (1, 5, 5)
        assert np.allclose(obs.projectors[0], np.eye(5))

    def test_two_qubit_sum_degeneracy(self):
        total = np.diag([2.0, 0.0, 0.0, -2.0])
        obs = Observable(total)
        assert list(obs.eigenvalues) == [-2.0, 0.0, 2.0]
        assert obs.multiplicities == (1, 2, 1)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            Observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_beyond_envelope(self):
        with pytest.raises(DimensionMismatchError):
            Observable(np.eye(65))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_projector_invariants_random(self, n):
        rng = np.random.default_rng(100 + n)
        h = random_hermitian(rng, n)
        obs = Observable(h)
        assert sum(obs.multiplicities) == n
        assert np.all(np.diff(obs.eigenvalues) > 0)
        assert obs.projectors.shape == (len(obs.eigenvalues), n, n)
        lines = list(zip(obs.eigenvalues, obs.multiplicities, obs.projectors))
        for i, (eigenvalue, multiplicity, p) in enumerate(lines):
            assert np.abs(p - p.conj().T).max() <= 1e-10
            assert np.abs(p @ p - p).max() <= 1e-10
            assert np.trace(p).real == pytest.approx(multiplicity, abs=1e-10)
            assert np.abs(p @ h @ p - eigenvalue * p).max() <= 1e-9
            for _, _, other in lines[i + 1 :]:
                assert np.abs(p @ other).max() <= 1e-10

    def test_reconstruction_and_completeness(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            h = random_hermitian(rng, n)
            obs = Observable(h)
            scale = np.linalg.norm(h)
            assert np.abs(np.einsum("k,kij->ij", obs.eigenvalues, obs.projectors) - h).max() <= 1e-10 * scale
            assert np.abs(obs.projectors.sum(0) - np.eye(n)).max() <= 1e-10

    def test_exact_degeneracy_grouped(self):
        # eigh splits exact degeneracies by ulps; the grouping must merge them
        rng = np.random.default_rng(12)
        u = np.linalg.qr(random_hermitian(rng, 4) + 1j * np.eye(4))[0]
        h = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T
        obs = Observable((h + h.conj().T) / 2)
        assert obs.multiplicities == (2, 1, 1)


class TestObservable:
    def test_eigenvector_phase_is_deterministic(self):
        obs = Observable(PAULI_Y)
        v = obs.eigenvectors
        for j in range(2):
            pivot = v[np.abs(v[:, j]) > 1e-8, j][0]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0
        assert np.allclose(obs.matrix @ v, v @ np.diag(obs.eigenvalues))

    def test_degenerate_flag(self):
        assert Observable(PAULI_Z).is_nondegenerate
        assert not Observable(np.eye(3)).is_nondegenerate
        with pytest.raises(DegenerateSpectrumError):
            Observable(np.eye(3)).require_nondegenerate()

    def test_line_index_matches_within_tolerance(self):
        obs = Observable(PAULI_Z)
        assert obs.line_index(1.0 + 1e-12) == 1
        with pytest.raises(SpectrumCoverageError):
            obs.line_index(0.5)

    def test_matrix_is_readonly(self):
        obs = Observable(PAULI_Z)
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 7.0

    def test_spectral_record_is_read_only_and_built_once(self):
        obs = Observable(np.diag([1.0, 1.0, 2.0]))
        for name in ("eigenvalues", "eigenvectors", "projectors"):
            first = getattr(obs, name)
            assert getattr(obs, name) is first
            with pytest.raises(ValueError):
                first[0] = 0.0


def test_match_value_picks_nearest():
    values = np.array([-1.0, 0.0, 2.0])
    assert match_value(values, 1.9999999999, 1e-8) == 2
    with pytest.raises(SpectrumCoverageError):
        match_value(values, 1.0, 1e-8)
    with pytest.raises(SpectrumCoverageError):
        match_value(values, np.nan, 1e-8)
    # tuples match by their largest coordinate gap; the first of equally near entries wins
    pairs = [(0.0, 1.0), (1.0, 0.0), (1.0, 2.0), (1.0, 0.0)]
    assert match_value(pairs, (1.0 + 1e-9, -1e-9), 1e-8) == 1
    assert match_value(pairs, (0.5, 1.0), 0.5) == 0
    for miss in [(0.0, 1.5), (1.0, np.nan), (np.nan, 0.0)]:
        with pytest.raises(SpectrumCoverageError):
            match_value(pairs, miss, 1e-8)
    with pytest.raises(SpectrumCoverageError):
        match_value([], (0.0, 0.0), 1e-8)


def test_phase_fix_skips_negligible_components():
    v = np.array([[1e-12, 1.0], [1.0j, 0.0]], dtype=complex)
    fixed = phase_fix(v)
    # column 0 pivots on the second entry, rotating 1j to 1
    assert fixed[1, 0] == pytest.approx(1.0)
    assert fixed[0, 1] == pytest.approx(1.0)


def test_commutator_triple_has_traceless_vanishing_diagonal():
    # for C = [A, B]/i, both tr(C) and the diagonal of C in A's eigenbasis vanish
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        c = extract_c(a, b, 1.0)
        scale = np.linalg.norm(c)
        assert abs(np.trace(c)) <= 1e-10 * scale
        v = np.linalg.eigh(a)[1]
        diag = np.einsum("ij,jk,ki->i", v.conj().T, c, v)
        assert np.abs(diag).max() <= 1e-10 * scale


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def mean_per_group(values: np.ndarray, bounds: list[int]) -> list[float]:
    return [float(np.mean(values[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


SIGNED_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and the normal edge
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(SIGNED_FLOATS, min_size=1, max_size=9), max_size=6))
@example([[-0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0, -0.0]])
@example([[5e-324], [5e-324, 5e-324], [-5e-324, 5e-324], [1e300, 1e300]])
def test_group_means_have_the_bits_of_np_mean(groups):
    values = np.array([x for group in groups for x in group], dtype=float)
    bounds = np.cumsum([0] + [len(group) for group in groups]).tolist()
    assert bits(group_means(values, bounds)) == bits(mean_per_group(values, bounds))


@pytest.mark.parametrize("multiplicities", [(2, 1, 1), (3, 1), (1, 2, 3), (2, 3, 2, 1), (3, 3, 2)])
@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e150])
def test_degenerate_line_eigenvalues_have_the_bits_of_np_mean(multiplicities, scale):
    # eigh splits each repeated eigenvalue by a few ulps, so a line of 2 or 3 averages distinct raw values
    rng = np.random.default_rng(sum(multiplicities) + len(multiplicities))
    n = sum(multiplicities)
    diagonal = np.repeat(np.sort(rng.standard_normal(len(multiplicities))) * scale, multiplicities)
    u = np.linalg.qr(random_hermitian(rng, n) + 1j * np.eye(n))[0]
    h = u @ np.diag(diagonal) @ u.conj().T
    obs = Observable((h + h.conj().T) / 2)
    assert obs.multiplicities == multiplicities
    w = obs._eigh[0]
    want = [float(np.mean(w[group])) for group in group_close_values(w, default_grouping_tol(w))]
    assert bits(obs.eigenvalues) == bits(want)
