"""Two-factor composite spaces and the conserved sum observable.

The sum S = A(1) + A(2) of one observable measured on both factors has
eigenspaces indexed by the anti-diagonals of the factor spectrum product:
all pairs (a_n, a_m) with a_n + a_m equal share one eigenvalue, and the
degeneracy of that eigenvalue is the number of such pairs. This module
builds that structure explicitly and measures the sum, and either factor,
on a state's N x N coefficient matrix.

Measurements come in two equivalent forms. The factor-space form works on
a state's N x N coefficient matrix psi (first factor as rows):
(P x I) vec(psi) is vec(P psi), (I x P) vec(psi) is vec(psi P^T), and sum
line k keeps the amplitudes K[n, m] of K = V^H psi conj(V)
(``eigenbasis_coefficients``) on its pairs (n, m), which the index lists
line by line, as tuples in ``sets`` and as one flat (k, n, m) array in
``pairs``; ``coefficient_matrix`` gives a state's psi.
``project_slot`` and ``slot_expectation`` take this form on a
(..., N, N) stack: leading axes index states, and each state's result has
the bits it would have alone, since a batched product runs the same BLAS
call on every matrix. The analysis
measures B and C on every branch in one ``project_slot`` call per
observable and slot, and reads everything about A off K; ``line_totals``
adds weights given per eigenvector over each line of an observable.
``slot_expectation`` returns numpy complex values; its one package caller,
``conditional.epr_resolution_check``, takes the modulus of one slot-2 value
with Python's ``abs``, since ``np.abs`` of a complex can differ in the last
bit. The analysis does not call it: it reads <C> off C's diagonal in A's
eigenbasis, through ``lab._half_modulus``. ``eprkit.conditional``
builds its branch table from K and the index's ``pairs``. The dense
form (``lift``, ``sum_observable``) assembles a new N^2 x N^2 operator on
each call, with its eigenvalues, multiplicities and projector stack built
from the factor's ``projectors`` and ``multiplicities``. Neither the
analysis nor any ``eprkit.conditional`` entry point runs it; it stays
public as the independent route the tests check the factor-space form
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ImpossibleOutcomeError, SpectrumCoverageError
from .linalg import (
    Observable,
    as_complex_matrix,
    default_grouping_tol,
    group_means,
    hermiticity_tolerance,
    match_value,
    tensor_product,
)
from .states import PureState, projected_probabilities

# Conditioning on an outcome below this probability is treated as impossible.
ZERO_PROB_THRESHOLD = 1e-12

PROJECTOR_TOL = 1e-10

# Singular values above this count toward the Schmidt rank.
SCHMIDT_TOL = 1e-10


@dataclass(frozen=True)
class AntiDiagonalIndex:
    """Anti-diagonal structure of the pairwise sums of a factor spectrum.

    ``sets[k]`` lists the 0-based index pairs (n, m) with
    ``a_n + a_m == sums[k]`` (within ``match_tol``); its length is the
    degeneracy of the k-th sum eigenvalue. ``pairs`` is the same listing
    flattened, derived from ``sets``: one read-only (3, pairs) array whose
    columns are (k, n, m), line by line in the order of ``sets``.
    """

    factor_eigenvalues: tuple[float, ...]
    sums: tuple[float, ...]
    sets: tuple[tuple[tuple[int, int], ...], ...]
    match_tol: float
    pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = np.array([pair for line in self.sets for pair in line], dtype=np.intp).reshape(-1, 2)
        pairs = np.vstack((np.repeat(np.arange(len(self.sets)), self.degeneracies), members.T))
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    def sum_index(self, s_value: float) -> int:
        return match_value(self.sums, s_value, self.match_tol)

    def chi(self, a_value: float, s_value: float) -> bool:
        """True iff some a_m in the spectrum satisfies a_value + a_m == s_value."""
        try:
            n = match_value(self.factor_eigenvalues, a_value, self.match_tol)
            k = self.sum_index(s_value)
        except SpectrumCoverageError:
            return False
        return any(pair[0] == n for pair in self.sets[k])


def anti_diagonals(spectrum) -> AntiDiagonalIndex:
    """Group the N^2 pairwise sums of a strictly increasing spectrum.

    Sums whose gaps stay below the grouping tolerance are merged, mirroring
    how near-degenerate eigenvalues are merged in spectral decomposition:
    sorted, a gap above the tolerance starts a new line. Each line's sum is
    the ``np.mean`` of its pair sums in sorted order, and its pairs are
    listed in (n, m) order.
    """
    ev = np.asarray(spectrum, dtype=float)
    if ev.ndim != 1 or ev.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d sequence")
    if np.any(np.diff(ev) <= 0):
        raise ValueError("spectrum must be strictly increasing")
    n = ev.size
    pair_sums = np.add.outer(ev, ev).ravel()
    tol = default_grouping_tol(pair_sums)
    order = np.argsort(pair_sums, kind="stable")
    ordered = pair_sums[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-np.inf) > tol)
    sizes = np.diff(starts, append=ordered.size)
    line = np.repeat(np.arange(starts.size), sizes)
    members = order[np.lexsort((order, line))].tolist()
    pairs = [divmod(flat, n) for flat in members]
    bounds = np.append(starts, ordered.size).tolist()
    return AntiDiagonalIndex(
        factor_eigenvalues=tuple(ev.tolist()),
        sums=tuple(group_means(ordered, bounds)),
        sets=tuple(tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])),
        match_tol=tol,
    )


def anti_diagonal_index(a: Observable) -> AntiDiagonalIndex:
    """``anti_diagonals`` of A's spectrum, kept on ``a`` so every caller shares one index."""
    if a._anti_diagonals is None:
        a._anti_diagonals = anti_diagonals(a.eigenvalues)
    return a._anti_diagonals


def eigenbasis_coefficients(psi: np.ndarray, a: Observable) -> np.ndarray:
    """K = V^H psi conj(V): the amplitudes of the coefficient matrix psi on A's product eigenstates |a_n>|a_m>."""
    v = a.eigenvectors
    return v.conj().T @ psi @ v.conj()


def line_totals(weights: np.ndarray, obs: Observable, axis: int = -1) -> np.ndarray:
    """Add weights given per eigenvector of obs (its columns, ascending) over each of its lines, along axis.

    When every line holds one eigenvector the totals are the weights
    themselves, and ``weights`` is returned as it is, not copied.
    """
    if len(obs.multiplicities) == obs.dim:
        return weights
    return np.add.reduceat(weights, np.cumsum((0, *obs.multiplicities[:-1])), axis=axis)


def project_slot(psi: np.ndarray, obs: Observable, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Measure a factor observable on one slot of each coefficient matrix in the (..., N, N) stack psi.

    Returns the (..., lines) outcome probabilities, in the order of the
    observable's lines, and the (..., lines, N, N) projected matrices
    ``P_k psi`` (slot 1) or ``psi P_k^T`` (slot 2), taken in one batched
    product with the factor's projector stack ``obs.projectors``.
    """
    stack = obs.projectors
    psi = psi[..., None, :, :]
    if slot == 1:
        projected = stack @ psi
    elif slot == 2:
        projected = psi @ stack.transpose(0, 2, 1)
    else:
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    return projected_probabilities(projected.reshape(*projected.shape[:-2], -1)), projected


def slot_expectation(psi: np.ndarray, c: Observable, slot: int) -> np.ndarray:
    """``<psi| C x I |psi>`` (slot 1) or ``<psi| I x C |psi>`` (slot 2) of each matrix in the (..., N, N) stack psi.

    Each value is the ``vdot`` of psi with C psi (or psi C^T), as ``vecdot``
    on the flattened matrices. Its one package caller,
    ``conditional.epr_resolution_check``, passes one state and slot 2 and
    takes the modulus with Python's ``abs``: ``np.abs`` of a complex can
    differ from it in the last bit. The analysis does not call it: it weights
    C's diagonal in A's eigenbasis by each branch's A probabilities and takes
    the modulus through ``lab._half_modulus``.
    """
    if slot == 1:
        applied = c.matrix @ psi
    elif slot == 2:
        applied = psi @ c.matrix.T
    else:
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    lead = psi.shape[:-2]
    return np.vecdot(psi.reshape(*lead, -1), applied.reshape(*lead, -1))


def _assemble_lines(matrix: np.ndarray, eigenvalues, sets, left, right) -> Observable:
    """Observable(matrix) with its lines assembled from factor lines, so reading them runs no eigensolver.

    ``left`` and ``right`` are the (projectors, multiplicities) of the two
    factors. Line k has eigenvalue ``eigenvalues[k]``; its projector is the
    sum of ``P_L x Q_R`` over the factor line pairs (L, R) in ``sets[k]``,
    and its multiplicity the sum of the products of their multiplicities.
    """
    obs = Observable(matrix)
    (p, p_mult), (q, q_mult) = left, right
    projectors = np.zeros((len(sets), obs.dim, obs.dim), dtype=np.complex128)
    for projector, pairs in zip(projectors, sets):
        for n, m in pairs:
            projector += tensor_product(p[n], q[m])
    obs._set_lines(eigenvalues, tuple(sum(p_mult[n] * q_mult[m] for n, m in pairs) for pairs in sets), projectors)
    return obs


def lift(obs: Observable, slot: int) -> Observable:
    """Embed a factor observable into the composite space: A x I or I x A.

    The k-th line of the lift is the k-th line of ``obs``, with projector
    ``P_k x I`` (or ``I x P_k``) and N times its multiplicity. Each call
    builds a new observable.
    """
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    eye = np.eye(obs.dim)
    # the identity's one line covers the whole factor
    factor, identity = (obs.projectors, obs.multiplicities), (eye[None], (obs.dim,))
    lines = range(len(obs.multiplicities))
    if slot == 1:
        return _assemble_lines(tensor_product(obs.matrix, eye), obs.eigenvalues, [[(k, 0)] for k in lines], factor, identity)
    return _assemble_lines(tensor_product(eye, obs.matrix), obs.eigenvalues, [[(0, k)] for k in lines], identity, factor)


def sum_observable(a1: Observable) -> Observable:
    """Build the conserved sum S = A x I + I x A for two identical factors.

    Line k is sum line k of ``anti_diagonal_index(a1)``: its projector is
    assembled exactly as the sum of factor eigenprojector products over the
    line's pairs, so each sum eigenvalue carries the anti-diagonal degeneracy
    by construction rather than by re-grouping eigensolver output. Each call
    builds a new observable.
    """
    eye = np.eye(a1.dim)
    index = anti_diagonal_index(a1)
    factor = (a1.projectors, a1.multiplicities)
    return _assemble_lines(
        tensor_product(a1.matrix, eye) + tensor_product(eye, a1.matrix), index.sums, index.sets, factor, factor
    )


def require_possible(probability: float) -> float:
    """The probability of an outcome to condition on; ImpossibleOutcomeError below the zero-probability threshold."""
    if probability < ZERO_PROB_THRESHOLD:
        raise ImpossibleOutcomeError(f"outcome has probability {probability:.3e}; cannot condition on it")
    return probability


def coefficient_matrix(state: PureState, n: int) -> np.ndarray:
    """The N x N coefficient matrix of a state on two N-level factors, first factor as rows."""
    if state.dim != n * n:
        raise DimensionMismatchError(f"state dim {state.dim} is not the composite dim {n * n}")
    if len(state.factor_dims) == 2 and state.factor_dims != (n, n):
        raise DimensionMismatchError(f"state factors {state.factor_dims} are not ({n}, {n})")
    return state.amplitudes.reshape(n, n)


def collapse(state: PureState, projected: np.ndarray, prob: float) -> PureState:
    """The state ``P psi / sqrt(p)`` an outcome leaves, from ``P psi`` and ``p = |P psi|^2``.

    Raises ImpossibleOutcomeError when p falls below the zero-probability
    threshold, since the collapsed state is undefined there.
    """
    require_possible(prob)
    return PureState(projected, factor_dims=state.factor_dims)


def post_measurement_state(state: PureState, projector) -> tuple[PureState, float]:
    """Collapse onto a caller's projector: return (P psi / sqrt(p), p) with p = <psi|P|psi>.

    The projector is checked to be Hermitian and idempotent. Raises
    ImpossibleOutcomeError when p falls below the zero-probability threshold.
    """
    p_mat = as_complex_matrix(projector)
    if p_mat.shape != (state.dim, state.dim):
        raise DimensionMismatchError("projector does not act on the state's space")
    tol = max(PROJECTOR_TOL, hermiticity_tolerance(p_mat))
    if not (float(np.abs(p_mat - p_mat.conj().T).max()) <= tol and float(np.abs(p_mat @ p_mat - p_mat).max()) <= tol):
        raise ValueError("projector must be Hermitian and idempotent")
    projected = p_mat @ state.amplitudes
    prob = float(np.real(np.vdot(projected, projected)))
    return collapse(state, projected, prob), min(prob, 1.0)


def schmidt_rank(state: PureState) -> int:
    """Number of singular values of a two-factor state's coefficient matrix above ``SCHMIDT_TOL``.

    Rank 1 means a product state; rank >= 2 means entanglement. The factor
    dim is the first of two declared factors, else the square root of the
    state's dim.
    """
    n = state.factor_dims[0] if len(state.factor_dims) == 2 else int(round(np.sqrt(state.dim)))
    return int(np.count_nonzero(np.linalg.svd(coefficient_matrix(state, n), compute_uv=False) > SCHMIDT_TOL))
