"""Dense complex matrix algebra for finite-level systems.

Everything downstream builds on the four primitives here: Kronecker products,
commutators, degeneracy grouping of Hermitian spectra, and the ``Observable``
wrapper that caches one spectral record next to its matrix: distinct
eigenvalues, multiplicities, eigenvectors and one stack of line projectors.
All matrices are dense, row-major ``complex128``; the supported envelope is
dimension <= 64.
"""

from __future__ import annotations

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


def is_hermitian(m) -> bool:
    """True iff ``max |M - M^H|`` is within ``hermiticity_tolerance``, scaled to the matrix magnitude."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"hermiticity is defined for square matrices, got {a.shape}")
    return float(np.abs(a - a.conj().T).max(initial=0.0)) <= hermiticity_tolerance(a)


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex matrix; NonHermitianError unless square and Hermitian within ``hermiticity_tolerance``."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1] or not is_hermitian(a):
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
    Hermitian up to rounding. A quotient that overflows (a subnormal alpha)
    raises ValueError.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    a = require_hermitian(a, name="a")
    b = require_hermitian(b, name="b")
    with np.errstate(over="ignore", invalid="ignore"):
        c = commutator(a, b) / (1j * alpha)
    if not np.isfinite(c).all():
        raise ValueError(f"[A, B]/(i*alpha) overflows for alpha = {alpha:.3e}")
    return c


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


def match_value(values, x: float | tuple[float, ...], tol: float) -> int:
    """Index of the entry of ``values`` nearest x, within tol; raises if none matches.

    Entries are numbers, or equal-length tuples matched to a tuple x by
    their largest coordinate gap; an x of another shape matches none. The
    first of equally near entries wins.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise SpectrumCoverageError("empty spectrum")
    point = np.asarray(x, dtype=float)
    if point.shape != values.shape[1:]:
        raise SpectrumCoverageError(f"value {x!r} does not have the shape of a spectrum entry")
    distance = np.abs(values - point).reshape(len(values), -1).max(axis=1)
    idx = int(np.argmin(distance))
    if not (distance[idx] <= tol):
        raise SpectrumCoverageError(f"value {x!r} does not match any spectrum entry within {tol!r}")
    return idx


def phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component of magnitude > ``PHASE_PIVOT_THRESHOLD`` is real positive.

    Projectors are phase-invariant, but reported eigenvectors should be
    deterministic across runs and platforms.
    """
    out = np.array(vectors, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        pivots = np.nonzero(np.abs(col) > PHASE_PIVOT_THRESHOLD)[0]
        if pivots.size:
            pivot = col[pivots[0]]
            col *= np.conj(pivot) / abs(pivot)
    return out


class Observable:
    """A Hermitian matrix together with its cached spectral record.

    The record is the distinct eigenvalues (ascending), their
    multiplicities, the phase-fixed eigenvectors and ``projectors``, the
    line projectors as one (lines, dim, dim) array. Each part is computed
    lazily on first access and then shared; instances are immutable. The
    lifted and sum observables that ``eprkit.composite`` builds from a factor
    observable come with their lines already assembled from the factor's,
    so reading them runs no eigensolver.
    """

    def __init__(self, matrix):
        m = require_hermitian(matrix, name="observable")
        if m.shape[0] > MAX_DIM:
            raise DimensionMismatchError(f"dimension {m.shape[0]} exceeds the supported envelope of {MAX_DIM}")
        m.setflags(write=False)
        self._matrix = m
        self._eigenvalues: np.ndarray | None = None
        self._multiplicities: tuple[int, ...] | None = None
        self._eigenvectors: np.ndarray | None = None
        self._projectors: np.ndarray | None = None
        # the sum index of ``eprkit.composite.anti_diagonal_index``, built on first use
        self._anti_diagonals = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def grouping_tol(self) -> float:
        return default_grouping_tol(self.eigenvalues)

    def _set_lines(self, eigenvalues, multiplicities: tuple[int, ...], projectors: np.ndarray | None = None) -> None:
        """Record the lines: their eigenvalues, multiplicities and, when already built, projectors."""
        self._eigenvalues = np.array(eigenvalues, dtype=float)
        self._eigenvalues.setflags(write=False)
        self._multiplicities = multiplicities
        if projectors is not None:
            projectors.setflags(write=False)
        self._projectors = projectors

    def _solve(self) -> None:
        """Run the eigensolver: fills the eigenvectors, and the lines unless they were given.

        Each line's eigenvalue is the mean of its group of raw eigenvalues.
        """
        w, v = np.linalg.eigh(self._matrix)
        v = phase_fix(v)
        v.setflags(write=False)
        self._eigenvectors = v
        if self._eigenvalues is None:
            groups = group_close_values(w, default_grouping_tol(w))
            self._set_lines([float(np.mean(w[group])) for group in groups], tuple(len(group) for group in groups))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Distinct eigenvalues, strictly increasing, as one read-only array."""
        if self._eigenvalues is None:
            self._solve()
        return self._eigenvalues

    @property
    def multiplicities(self) -> tuple[int, ...]:
        if self._multiplicities is None:
            self._solve()
        return self._multiplicities

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
    def projectors(self) -> np.ndarray:
        """The line projectors as one read-only (lines, dim, dim) array, built once.

        Line k projects onto its group of eigenvector columns V_k as
        ``V_k V_k^H``.
        """
        if self._projectors is None:
            v = self.eigenvectors
            blocks = [v[:, group] for group in np.split(np.arange(self.dim), np.cumsum(self.multiplicities)[:-1])]
            self._projectors = np.stack([block @ block.conj().T for block in blocks])
            self._projectors.setflags(write=False)
        return self._projectors

    @property
    def is_nondegenerate(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def require_nondegenerate(self) -> None:
        if not self.is_nondegenerate:
            raise DegenerateSpectrumError(
                f"observable has repeated eigenvalues (multiplicities {self.multiplicities})"
            )

    def line_index(self, value: float) -> int:
        """Index of the spectral line whose eigenvalue matches ``value`` within ``grouping_tol``."""
        return match_value(self.eigenvalues, value, self.grouping_tol)

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"
