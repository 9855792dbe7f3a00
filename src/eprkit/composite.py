"""Two-factor composite spaces and the conserved sum observable.

The sum S = A(1) + A(2) of one observable measured on both factors has
eigenspaces indexed by the anti-diagonals of the factor spectrum product:
all pairs (a_n, a_m) with a_n + a_m equal share one eigenvalue, and the
degeneracy of that eigenvalue is the number of such pairs. This module
builds that structure explicitly and implements projective collapse onto
sum eigenspaces.
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
from .states import OutcomeDistribution, PureState

# Conditioning on an outcome below this probability is treated as impossible.
ZERO_PROB_THRESHOLD = 1e-12

PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class CompositeSpace:
    """Two identical factors of dimension N, basis ordered first-factor-slow."""

    factor_dim: int
    factor_eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if len(self.factor_eigenvalues) != self.factor_dim:
            raise DimensionMismatchError("need one eigenvalue per factor basis vector")
        if any(b <= a for a, b in zip(self.factor_eigenvalues, self.factor_eigenvalues[1:])):
            raise ValueError("factor eigenvalues must be strictly increasing")

    @classmethod
    def for_observable(cls, a: Observable) -> "CompositeSpace":
        a.require_nondegenerate()
        return cls(factor_dim=a.dim, factor_eigenvalues=tuple(float(v) for v in a.eigenvalues))

    @property
    def factor_dims(self) -> tuple[int, int]:
        return (self.factor_dim, self.factor_dim)

    @property
    def dim(self) -> int:
        return self.factor_dim * self.factor_dim

    @property
    def basis_labels(self) -> tuple[tuple[float, float], ...]:
        """Eigenvalue pairs (a_n, a_m) in lexicographic order, first factor slow."""
        ev = self.factor_eigenvalues
        return tuple((an, am) for an in ev for am in ev)


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


def anti_diagonals(spectrum, grouping_tol: float | None = None) -> AntiDiagonalIndex:
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
    tol = default_grouping_tol(pair_sums) if grouping_tol is None else grouping_tol
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


def lift(obs: Observable, slot: int, space: CompositeSpace | None = None) -> Observable:
    """Embed a factor observable into the composite space: A x I or I x A.

    Built once per (observable, slot) and kept on ``obs``, so every caller
    shares one lifted observable and its spectral decomposition.
    """
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    if space is not None and space.factor_dim != obs.dim:
        raise DimensionMismatchError(
            f"observable dim {obs.dim} does not match factor dim {space.factor_dim}"
        )
    lifted = obs._lifts.get(slot)
    if lifted is None:
        eye = np.eye(obs.dim)
        matrix = tensor_product(obs.matrix, eye) if slot == 1 else tensor_product(eye, obs.matrix)
        lifted = obs._lifts[slot] = Observable(matrix)
    return lifted


class SumObservable(Observable):
    """S = A x I + I x A with its decomposition built from anti-diagonals.

    The eigenprojectors are assembled exactly as sums of factor eigenprojector
    products, so each sum eigenvalue carries the anti-diagonal degeneracy by
    construction rather than by re-grouping eigensolver output.
    """

    def __init__(self, factor: Observable, space: CompositeSpace | None, index: AntiDiagonalIndex):
        eye = np.eye(factor.dim)
        matrix = tensor_product(factor.matrix, eye) + tensor_product(eye, factor.matrix)
        super().__init__(matrix, grouping_tol=index.match_tol)
        # no reference back to ``factor``: it holds this observable in its
        # cache, and a cycle would outlive the scenario until a GC pass
        self.space = space
        self.index = index

        factor_lines = factor.decomposition.lines
        lines = []
        for s, members in zip(index.sums, index.sets):
            projector = np.zeros((self.dim, self.dim), dtype=np.complex128)
            multiplicity = 0
            for n, m in members:
                projector += tensor_product(factor_lines[n].projector, factor_lines[m].projector)
                multiplicity += factor_lines[n].multiplicity * factor_lines[m].multiplicity
            projector.setflags(write=False)
            lines.append(SpectralLine(eigenvalue=s, multiplicity=multiplicity, projector=projector))
        self._decomposition = SpectralDecomposition(lines=tuple(lines), source_dim=self.dim)
        if factor.is_nondegenerate:
            v = factor.eigenvectors
            self._eigenvectors = np.column_stack(
                [np.kron(v[:, n], v[:, m]) for members in index.sets for n, m in members]
            )


def sum_observable(
    a1: Observable,
    a2: Observable | None = None,
    space: CompositeSpace | None = None,
) -> SumObservable:
    """Build the conserved sum S = A(1) + A(2) for two identical factors.

    The result is kept on ``a1`` and reused while the composite space stays
    the same, so its projectors are assembled once per factor observable.
    """
    if a2 is not None:
        if a2.dim != a1.dim or float(np.abs(a2.matrix - a1.matrix).max()) > hermiticity_tolerance(a1.matrix):
            raise DimensionMismatchError("only two identical factors are supported")
    if space is None and a1.is_nondegenerate:
        space = CompositeSpace.for_observable(a1)
    if space is not None and space.factor_dim != a1.dim:
        raise DimensionMismatchError(
            f"space factor dim {space.factor_dim} does not match observable dim {a1.dim}"
        )
    if a1._sum is None or a1._sum.space != space:
        a1._sum = SumObservable(factor=a1, space=space, index=anti_diagonals(a1.eigenvalues))
    return a1._sum


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities q[n, m] of jointly observing (a_n, a_m) on the two factors."""

    q: np.ndarray
    a_eigenvalues: tuple[float, ...]

    def __post_init__(self):
        n = len(self.a_eigenvalues)
        if self.q.shape != (n, n):
            raise DimensionMismatchError(f"q shape {self.q.shape} does not match spectrum size {n}")
        if self.q.min() < -1e-12 or self.q.max() > 1.0 + 1e-12:
            raise ValueError("joint probabilities must lie in [0, 1]")
        total = float(self.q.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")


def _composite_factor_dim(state: PureState, n: int) -> None:
    if state.dim != n * n:
        raise DimensionMismatchError(f"state dim {state.dim} is not the composite dim {n * n}")
    if len(state.factor_dims) == 2 and state.factor_dims != (n, n):
        raise DimensionMismatchError(f"state factors {state.factor_dims} are not ({n}, {n})")


def joint_distribution(state: PureState, a: Observable, space: CompositeSpace | None = None) -> JointDistribution:
    """Coefficients of the state on the product eigenbasis, squared."""
    a.require_nondegenerate()
    _composite_factor_dim(state, a.dim)
    if space is not None and space.factor_dim != a.dim:
        raise DimensionMismatchError("space does not match the factor observable")
    v = a.eigenvectors
    psi = state.amplitudes.reshape(a.dim, a.dim)
    coeff = v.conj().T @ psi @ v.conj()
    q = np.clip(np.abs(coeff) ** 2, 0.0, 1.0)
    q.setflags(write=False)
    return JointDistribution(q=q, a_eigenvalues=tuple(float(x) for x in a.eigenvalues))


def sum_probabilities(q: JointDistribution, idx: AntiDiagonalIndex) -> OutcomeDistribution:
    """Accumulate joint probabilities along anti-diagonals: p(s_k) = sum over S(k)."""
    if len(q.a_eigenvalues) != len(idx.factor_eigenvalues):
        raise DimensionMismatchError("joint distribution and index use different spectra")
    outcomes = []
    for s, members in zip(idx.sums, idx.sets):
        p = float(sum(q.q[n, m] for n, m in members))
        outcomes.append((s, min(max(p, 0.0), 1.0)))
    return OutcomeDistribution(outcomes=tuple(outcomes))


def eigenspace_projector(s: Observable, k: int) -> np.ndarray:
    """Projector onto the k-th (ascending) eigenspace of an observable."""
    lines = s.decomposition.lines
    if not 0 <= k < len(lines):
        raise IndexError(f"eigenspace index {k} out of range for {len(lines)} lines")
    return lines[k].projector


def post_measurement_state(state: PureState, projector) -> tuple[PureState, float]:
    """Collapse: return (P psi / sqrt(p), p) with p = <psi|P|psi>.

    Raises ImpossibleOutcomeError when p falls below the zero-probability
    threshold, since the collapsed state is undefined there.
    """
    p_mat = as_complex_matrix(projector)
    if p_mat.shape != (state.dim, state.dim):
        raise DimensionMismatchError("projector does not act on the state's space")
    tol = max(PROJECTOR_TOL, hermiticity_tolerance(p_mat))
    if float(np.abs(p_mat - p_mat.conj().T).max()) > tol or float(np.abs(p_mat @ p_mat - p_mat).max()) > tol:
        raise ValueError("projector must be Hermitian and idempotent")
    projected = p_mat @ state.amplitudes
    prob = float(np.real(np.vdot(projected, projected)))
    if prob < ZERO_PROB_THRESHOLD:
        raise ImpossibleOutcomeError(f"outcome has probability {prob:.3e}; cannot condition on it")
    collapsed = PureState(projected, factor_dims=state.factor_dims)
    return collapsed, min(prob, 1.0)


def decompose_by_sum(state: PureState, s: Observable) -> list[tuple[float, PureState]]:
    """Split a state into its sum-eigenspace branches.

    Returns (sqrt(p(s_k)), branch) for every eigenvalue with probability above
    the zero threshold. Branches keep the phase inherited from the projection,
    so the weighted branches add back up to the original state verbatim.
    """
    if state.dim != s.dim:
        raise DimensionMismatchError("state and observable dims differ")
    branches = []
    for line in s.decomposition.lines:
        w = line.projector @ state.amplitudes
        prob = float(np.real(np.vdot(w, w)))
        if prob >= ZERO_PROB_THRESHOLD:
            branch, p = post_measurement_state(state, line.projector)
            branches.append((float(np.sqrt(p)), branch))
    return branches


def schmidt_rank(state: PureState, space: CompositeSpace | None = None, tol: float = 1e-10) -> int:
    """Number of singular values of the coefficient matrix above tol.

    Rank 1 means a product state; rank >= 2 means entanglement.
    """
    if space is not None:
        n = space.factor_dim
    elif len(state.factor_dims) == 2:
        n = state.factor_dims[0]
    else:
        n = int(round(np.sqrt(state.dim)))
    _composite_factor_dim(state, n)
    singular = np.linalg.svd(state.amplitudes.reshape(n, n), compute_uv=False)
    return int(np.count_nonzero(singular > tol))
