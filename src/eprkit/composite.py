"""Two-factor composite spaces and the conserved sum observable.

The sum S = A(1) + A(2) of one observable measured on both factors has
eigenspaces indexed by the anti-diagonals of the factor spectrum product:
all pairs (a_n, a_m) with a_n + a_m equal share one eigenvalue, and the
degeneracy of that eigenvalue is the number of such pairs. This module
builds that structure explicitly and implements projective collapse onto
sum eigenspaces.

Measurements come in two equivalent forms. The factor-space form works on
a state's N x N coefficient matrix psi (first factor as rows):
(P x I) vec(psi) is vec(P psi), (I x P) vec(psi) is vec(psi P^T), and sum
line k projects psi to the sum of P_n psi P_m^T over its pairs (n, m).
``project_slot``, ``project_sum``, ``slot_expectation`` and
``schmidt_rank`` take this form on a (..., N, N) stack: leading axes index
states, and each state's result has the bits it would have alone, since a
batched product runs the same BLAS call on every matrix. The analysis
pipeline measures every branch, and then every chain, in one such call per
observable and slot. ``slot_expectation`` returns numpy complex values:
take their modulus with Python's ``abs`` on ``tolist()`` entries where the
bits matter, since ``np.abs`` of a complex can differ in the last bit.
The dense form (``lift``, ``sum_observable``) assembles the N^2 x N^2
operators and their projectors. Neither the analysis nor any
``eprkit.conditional`` entry point runs it; it stays public as the
independent route the tests check the factor-space form against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ImpossibleOutcomeError, SpectrumCoverageError
from .linalg import (
    Observable,
    SpectralDecomposition,
    SpectralLine,
    as_complex_matrix,
    default_grouping_tol,
    group_close_values,
    hermiticity_tolerance,
    match_value,
    tensor_product,
)
from .states import PureState, projected_probabilities

# Conditioning on an outcome below this probability is treated as impossible.
ZERO_PROB_THRESHOLD = 1e-12

PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class AntiDiagonalIndex:
    """Anti-diagonal structure of the pairwise sums of a factor spectrum.

    ``sets[k]`` lists the 0-based index pairs (n, m) with
    ``a_n + a_m == sums[k]`` (within ``match_tol``); its length is the
    degeneracy of the k-th sum eigenvalue.
    """

    factor_eigenvalues: tuple[float, ...]
    sums: tuple[float, ...]
    sets: tuple[tuple[tuple[int, int], ...], ...]
    match_tol: float

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
    how near-degenerate eigenvalues are merged in spectral decomposition.
    """
    ev = np.asarray(spectrum, dtype=float)
    if ev.ndim != 1 or ev.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d sequence")
    if np.any(np.diff(ev) <= 0):
        raise ValueError("spectrum must be strictly increasing")
    n = ev.size
    pair_sums = np.array([ev[i] + ev[j] for i in range(n) for j in range(n)])
    pairs = [(i, j) for i in range(n) for j in range(n)]
    tol = default_grouping_tol(pair_sums)
    order = np.argsort(pair_sums, kind="stable")
    groups = group_close_values(pair_sums[order], tol)
    sums = []
    sets = []
    for group in groups:
        members = sorted(pairs[order[i]] for i in group)
        sums.append(float(np.mean(pair_sums[order[list(group)]])))
        sets.append(tuple(members))
    return AntiDiagonalIndex(
        factor_eigenvalues=tuple(float(v) for v in ev),
        sums=tuple(sums),
        sets=tuple(sets),
        match_tol=tol,
    )


def anti_diagonal_index(a: Observable) -> AntiDiagonalIndex:
    """``anti_diagonals`` of A's spectrum, kept on ``a`` so every caller shares one index."""
    if a._anti_diagonals is None:
        a._anti_diagonals = anti_diagonals(a.eigenvalues)
    return a._anti_diagonals


def project_slot(psi: np.ndarray, obs: Observable, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Measure a factor observable on one slot of each coefficient matrix in the (..., N, N) stack psi.

    Returns the (..., lines) outcome probabilities, in the order of the
    observable's lines, and the (..., lines, N, N) projected matrices
    ``P_k psi`` (slot 1) or ``psi P_k^T`` (slot 2), taken in one batched
    product with the factor's projector stack.
    """
    stack = obs.projector_stack
    psi = psi[..., None, :, :]
    if slot == 1:
        projected = stack @ psi
    elif slot == 2:
        projected = psi @ stack.transpose(0, 2, 1)
    else:
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    return projected_probabilities(projected.reshape(*projected.shape[:-2], -1)), projected


def project_sum(psi: np.ndarray, a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Measure S = A(1) + A(2) on each coefficient matrix in the (..., N, N) stack psi.

    Line k projects psi to the sum of P_n psi P_m^T over its pairs (n, m).
    Returns the (..., lines) probabilities, in the order of the sum index,
    and the (..., lines, N, N) projected matrices. The terms of all N^2
    pairs come from two batched products; each line adds up its own pairs in
    index order.
    """
    index = anti_diagonal_index(a)
    stack = a.projector_stack
    terms = (stack @ psi[..., None, :, :])[..., :, None, :, :] @ stack.transpose(0, 2, 1)
    projected = np.empty((*psi.shape[:-2], len(index.sets), *psi.shape[-2:]), dtype=np.complex128)
    for k, pairs in enumerate(index.sets):
        rows, cols = zip(*pairs)
        terms[..., list(rows), list(cols), :, :].sum(axis=-3, out=projected[..., k, :, :])
    return projected_probabilities(projected.reshape(*projected.shape[:-2], -1)), projected


def slot_expectation(psi: np.ndarray, c: Observable, slot: int) -> np.ndarray:
    """``<psi| C x I |psi>`` (slot 1) or ``<psi| I x C |psi>`` (slot 2) of each matrix in the (..., N, N) stack psi.

    Each value is the ``vdot`` of psi with C psi (or psi C^T), as ``vecdot``
    on the flattened matrices. The analysis takes the audit's modulus with
    Python's ``abs`` on each ``tolist()`` entry: ``np.abs`` of a complex can
    differ from it in the last bit.
    """
    if slot == 1:
        applied = c.matrix @ psi
    elif slot == 2:
        applied = psi @ c.matrix.T
    else:
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    lead = psi.shape[:-2]
    return np.vecdot(psi.reshape(*lead, -1), applied.reshape(*lead, -1))


def _assemble_lines(obs: Observable, lines) -> None:
    """Give a composite observable its spectral lines from factor lines, so reading them runs no eigensolver.

    Each entry of ``lines`` is (eigenvalue, pairs of factor lines (L, R)); the
    line's projector is the sum of ``P_L x P_R`` over its pairs, and its
    multiplicity the sum of the products of their multiplicities.
    """
    assembled = []
    for eigenvalue, pairs in lines:
        projector = np.zeros((obs.dim, obs.dim), dtype=np.complex128)
        multiplicity = 0
        for left, right in pairs:
            projector += tensor_product(left.projector, right.projector)
            multiplicity += left.multiplicity * right.multiplicity
        projector.setflags(write=False)
        assembled.append(SpectralLine(eigenvalue=eigenvalue, multiplicity=multiplicity, projector=projector))
    obs._decomposition = SpectralDecomposition(lines=tuple(assembled), source_dim=obs.dim)


def lift(obs: Observable, slot: int) -> Observable:
    """Embed a factor observable into the composite space: A x I or I x A.

    The k-th line of the lift is the k-th line of ``obs``, with projector
    ``P_k x I`` (or ``I x P_k``) and N times its multiplicity. Built once per
    (observable, slot) and kept on ``obs``, so every caller shares one lifted
    observable and its spectral decomposition.
    """
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    lifted = obs._lifts.get(slot)
    if lifted is None:
        # the identity's one line: eigenvalue 1 on the whole factor
        eye = SpectralLine(eigenvalue=1.0, multiplicity=obs.dim, projector=np.eye(obs.dim))
        lines = obs.decomposition.lines
        if slot == 1:
            lifted = Observable(tensor_product(obs.matrix, eye.projector))
            _assemble_lines(lifted, [(line.eigenvalue, [(line, eye)]) for line in lines])
        else:
            lifted = Observable(tensor_product(eye.projector, obs.matrix))
            _assemble_lines(lifted, [(line.eigenvalue, [(eye, line)]) for line in lines])
        obs._lifts[slot] = lifted
    return lifted


class SumObservable(Observable):
    """S = A x I + I x A with its decomposition built from anti-diagonals.

    The eigenprojectors are assembled exactly as sums of factor eigenprojector
    products, so each sum eigenvalue carries the anti-diagonal degeneracy by
    construction rather than by re-grouping eigensolver output.
    """

    def __init__(self, factor: Observable, index: AntiDiagonalIndex):
        eye = np.eye(factor.dim)
        super().__init__(tensor_product(factor.matrix, eye) + tensor_product(eye, factor.matrix))
        # no reference back to ``factor``: it holds this observable in its
        # cache, and a cycle would outlive the scenario until a GC pass
        self.index = index
        lines = factor.decomposition.lines
        _assemble_lines(
            self, [(s, [(lines[n], lines[m]) for n, m in members]) for s, members in zip(index.sums, index.sets)]
        )


def sum_observable(a1: Observable) -> SumObservable:
    """Build the conserved sum S = A(1) + A(2) for two identical factors.

    The result is kept on ``a1``, so its projectors are assembled once per
    factor observable.
    """
    if a1._sum is None:
        a1._sum = SumObservable(factor=a1, index=anti_diagonal_index(a1))
    return a1._sum


def _composite_factor_dim(state: PureState, n: int) -> None:
    if state.dim != n * n:
        raise DimensionMismatchError(f"state dim {state.dim} is not the composite dim {n * n}")
    if len(state.factor_dims) == 2 and state.factor_dims != (n, n):
        raise DimensionMismatchError(f"state factors {state.factor_dims} are not ({n}, {n})")


def collapse(state: PureState, projected: np.ndarray, prob: float) -> PureState:
    """The state ``P psi / sqrt(p)`` an outcome leaves, from ``P psi`` and ``p = |P psi|^2``.

    Raises ImpossibleOutcomeError when p falls below the zero-probability
    threshold, since the collapsed state is undefined there.
    """
    if prob < ZERO_PROB_THRESHOLD:
        raise ImpossibleOutcomeError(f"outcome has probability {prob:.3e}; cannot condition on it")
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


def schmidt_rank(state: PureState | np.ndarray, tol: float = 1e-10) -> int | np.ndarray:
    """Number of singular values of the coefficient matrix above tol.

    Rank 1 means a product state; rank >= 2 means entanglement. ``state`` is
    a two-factor PureState, whose rank comes back as an int, or a (..., N, N)
    stack of coefficient matrices, whose ranks come back as an array.
    """
    if not isinstance(state, PureState):
        return np.count_nonzero(np.linalg.svd(state, compute_uv=False) > tol, axis=-1)
    if len(state.factor_dims) == 2:
        n = state.factor_dims[0]
    else:
        n = int(round(np.sqrt(state.dim)))
    _composite_factor_dim(state, n)
    singular = np.linalg.svd(state.amplitudes.reshape(n, n), compute_uv=False)
    return int(np.count_nonzero(singular > tol))
