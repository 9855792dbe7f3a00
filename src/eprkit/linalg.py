"""Dense complex matrix algebra for finite-level systems.

Everything downstream builds on the four primitives here: Kronecker products,
commutators, Hermitian spectral decompositions with degeneracy grouping, and
the ``Observable`` wrapper that caches a decomposition next to its matrix.
All matrices are dense, row-major ``complex128``; the supported envelope is
dimension <= 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NonHermitianError,
    SpectrumCoverageError,
)

MAX_DIM = 64

# Eigenvector phases are fixed against the first component larger than this.
PHASE_PIVOT_THRESHOLD = 1e-8


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a C-contiguous complex128 matrix, rejecting non-finite entries."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_tolerance(m: np.ndarray) -> float:
    """Default tolerance for Hermiticity checks, scaled to the matrix magnitude."""
    scale = float(np.abs(m).max()) if m.size else 0.0
    return 1e-10 * max(1.0, scale)


def is_hermitian(m, tol: float | None = None) -> bool:
    """True iff ``max |M - M^H| <= tol`` (defaults to a magnitude-scaled tolerance)."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"hermiticity is defined for square matrices, got {a.shape}")
    if tol is None:
        tol = hermiticity_tolerance(a)
    return float(np.abs(a - a.conj().T).max(initial=0.0)) <= tol


def require_hermitian(m, tol: float | None = None, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1] or not is_hermitian(a, tol):
        raise NonHermitianError(f"{name} is not Hermitian within tolerance")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the slow index.

    Entry ``((i1*rb + i2), (j1*cb + j2))`` equals ``a[i1, j1] * b[i2, j2]``, so the
    product basis is ordered lexicographically with factor 1 varying slowest.
    """
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def commutator(a, b) -> np.ndarray:
    """Return ``AB - BA``."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def extract_c(a, b, alpha: float) -> np.ndarray:
    """Solve ``[A, B] = i*alpha*C`` for C given Hermitian A, B.

    The commutator of Hermitian matrices is anti-Hermitian, so the result is
    Hermitian up to rounding.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    a = require_hermitian(a, name="a")
    b = require_hermitian(b, name="b")
    return commutator(a, b) / (1j * alpha)


@dataclass(frozen=True)
class SpectralLine:
    """One distinct eigenvalue with its multiplicity and eigenprojector."""

    eigenvalue: float
    multiplicity: int
    projector: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues of a Hermitian matrix, ascending, with projectors."""

    lines: tuple[SpectralLine, ...]
    source_dim: int

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([line.eigenvalue for line in self.lines])

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(line.multiplicity for line in self.lines)

    def reconstruct(self) -> np.ndarray:
        """Reassemble ``sum_k s_k * P_k``."""
        out = np.zeros((self.source_dim, self.source_dim), dtype=np.complex128)
        for line in self.lines:
            out += line.eigenvalue * line.projector
        return out

    def projector_sum(self) -> np.ndarray:
        out = np.zeros((self.source_dim, self.source_dim), dtype=np.complex128)
        for line in self.lines:
            out += line.projector
        return out


def default_grouping_tol(eigenvalues: np.ndarray) -> float:
    """Gap threshold under which raw eigenvalues are merged into one line; scales with the spectrum."""
    radius = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    return 1e-9 * radius


def group_close_values(sorted_values: np.ndarray, tol: float) -> list[list[int]]:
    """Greedily cluster an ascending array: a gap above tol starts a new group."""
    groups: list[list[int]] = []
    for i, v in enumerate(sorted_values):
        if groups and v - sorted_values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def match_value(values, x: float, tol: float) -> int:
    """Index of the entry of ``values`` within tol of x; raises if none matches."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise SpectrumCoverageError("empty spectrum")
    idx = int(np.argmin(np.abs(values - x)))
    if not (abs(values[idx] - x) <= tol):
        raise SpectrumCoverageError(f"value {x!r} does not match any spectrum entry within {tol!r}")
    return idx


def phase_fix(vectors: np.ndarray, threshold: float = PHASE_PIVOT_THRESHOLD) -> np.ndarray:
    """Rotate each column so its first component of magnitude > threshold is real positive.

    Projectors are phase-invariant, but reported eigenvectors should be
    deterministic across runs and platforms.
    """
    out = np.array(vectors, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        pivots = np.nonzero(np.abs(col) > threshold)[0]
        if pivots.size:
            pivot = col[pivots[0]]
            col *= np.conj(pivot) / abs(pivot)
    return out


def _grouped_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    w, v = np.linalg.eigh(h)
    return w, v, group_close_values(w, default_grouping_tol(w))


def spectral_decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, merging near-degenerate eigenvalues.

    Floating-point eigensolvers split exact degeneracies by a few ulps; raw
    eigenvalues whose pairwise gaps stay below ``1e-9 * spectral radius``
    are clustered into one line whose projector is the sum of outer
    products of the group's eigenvectors.
    """
    h = require_hermitian(h, name="input")
    if h.shape[0] > MAX_DIM:
        raise DimensionMismatchError(f"dimension {h.shape[0]} exceeds the supported envelope of {MAX_DIM}")
    return _decomposition(*_grouped_eigh(h))


def _decomposition(w: np.ndarray, v: np.ndarray, groups: list[list[int]]) -> SpectralDecomposition:
    """One line per group: the mean eigenvalue and the projector onto the group's eigenvectors."""
    lines = []
    for group in groups:
        block = v[:, group]
        projector = block @ block.conj().T
        projector.setflags(write=False)
        lines.append(
            SpectralLine(
                eigenvalue=float(np.mean(w[group])),
                multiplicity=len(group),
                projector=projector,
            )
        )
    return SpectralDecomposition(lines=tuple(lines), source_dim=v.shape[0])


class Observable:
    """A Hermitian matrix together with its cached spectral decomposition.

    The decomposition (and the phase-fixed eigenvector matrix) is computed
    lazily on first access and then shared; instances are immutable. The
    lifted and sum observables built from a factor observable in
    ``eprkit.composite`` come with their decomposition already assembled from
    the factor's lines, so reading it runs no eigensolver.
    """

    def __init__(self, matrix):
        m = require_hermitian(matrix, name="observable")
        if m.shape[0] > MAX_DIM:
            raise DimensionMismatchError(f"dimension {m.shape[0]} exceeds the supported envelope of {MAX_DIM}")
        m.setflags(write=False)
        self._matrix = m
        self._decomposition: SpectralDecomposition | None = None
        self._eigenvectors: np.ndarray | None = None
        # Composite-space observables derived from this one, built on first
        # use by ``eprkit.composite.lift`` (keyed by slot) and
        # ``eprkit.composite.sum_observable``, and freed with this instance.
        self._lifts: dict[int, Observable] = {}
        self._sum: Observable | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def grouping_tol(self) -> float:
        return default_grouping_tol(self.eigenvalues)

    def _solve(self) -> None:
        """Run the eigensolver: fills the eigenvectors, and the decomposition unless it was given."""
        w, v, groups = _grouped_eigh(self._matrix)
        v = phase_fix(v)
        if self._decomposition is None:
            self._decomposition = _decomposition(w, v, groups)
        v.setflags(write=False)
        self._eigenvectors = v

    @property
    def decomposition(self) -> SpectralDecomposition:
        if self._decomposition is None:
            self._solve()
        return self._decomposition

    @property
    def eigenvalues(self) -> np.ndarray:
        """Distinct eigenvalues, strictly increasing."""
        return self.decomposition.eigenvalues

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return self.decomposition.multiplicities

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(line.projector for line in self.decomposition.lines)

    @property
    def eigenvectors(self) -> np.ndarray:
        """Phase-fixed eigenvector columns, ascending eigenvalue order.

        Canonical only when the spectrum is nondegenerate; within a degenerate
        block the basis is whatever the eigensolver returned.
        """
        if self._eigenvectors is None:
            self._solve()
        return self._eigenvectors

    @property
    def is_nondegenerate(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def require_nondegenerate(self) -> None:
        if not self.is_nondegenerate:
            raise DegenerateSpectrumError(
                f"observable has repeated eigenvalues (multiplicities {self.multiplicities})"
            )

    def line_index(self, value: float, tol: float | None = None) -> int:
        """Index of the spectral line whose eigenvalue matches ``value`` within tol."""
        if tol is None:
            tol = self.grouping_tol
        return match_value(self.eigenvalues, value, tol)

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"
