"""Dense complex matrix algebra for finite-level systems.

Everything downstream builds on the four primitives here: Kronecker products,
commutators, degeneracy grouping of Hermitian spectra, and the ``Observable``
wrapper that caches one spectral record next to its matrix: distinct
eigenvalues, multiplicities, eigenvectors and one stack of line projectors.
All matrices are dense, row-major ``complex128``; the supported envelope is
dimension <= 64.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

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


def _within_hermiticity(a: np.ndarray) -> bool:
    """True iff ``max |A - A^H|`` of the square complex matrix a is within ``hermiticity_tolerance``."""
    return float(np.abs(a - a.conj().T).max(initial=0.0)) <= hermiticity_tolerance(a)


def is_hermitian(m) -> bool:
    """True iff ``max |M - M^H|`` is within ``hermiticity_tolerance``, scaled to the matrix magnitude."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"hermiticity is defined for square matrices, got {a.shape}")
    return _within_hermiticity(a)


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex matrix; NonHermitianError unless square and Hermitian within ``hermiticity_tolerance``."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1] or not _within_hermiticity(a):
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

    A and B are matrices, checked here, or Observables, whose matrices were
    checked when they were built and are not checked again. The commutator
    of Hermitian matrices is anti-Hermitian, so the result is Hermitian up
    to rounding. A quotient that overflows (a subnormal alpha) raises
    ValueError.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    a = a.matrix if isinstance(a, Observable) else require_hermitian(a, name="a")
    b = b.matrix if isinstance(b, Observable) else require_hermitian(b, name="b")
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


def group_means(values: np.ndarray, bounds: list[int]) -> list[float]:
    """The mean of each group ``values[lo:hi]`` between consecutive ``bounds``, with ``np.mean``'s bits.

    ``np.mean`` adds a slice from +0.0 and divides by its size once. Below
    8 members its pairwise sum is one left-to-right loop, so a group of 1
    to 7 is read as that sum from 0.0 (the mean of -0.0 is 0.0) divided by
    its size, with no numpy call. From 8 members the pairwise sum splits
    into partial sums, and a group takes ``np.mean`` of its slice.
    """
    items = values.tolist()
    means = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo < 8:
            total = 0.0
            for x in items[lo:hi]:
                total += x
            means.append(total / (hi - lo))
        else:
            means.append(float(np.mean(values[lo:hi])))
    return means


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


def line_projectors(vectors: np.ndarray, multiplicities: tuple[int, ...]) -> np.ndarray:
    """The (lines, dim, dim) projectors ``V_k V_k^H`` of consecutive groups of eigenvector columns.

    Line k holds the next ``multiplicities[k]`` columns V_k of ``vectors``.
    The lines of one multiplicity take one batched product of their column
    blocks; a batch runs the same BLAS call on every block as ``V_k @
    V_k.conj().T`` alone, so each projector has those bits. When every line
    has one multiplicity, as for a nondegenerate spectrum, that product is
    the stack itself.
    """
    dim = vectors.shape[0]
    firsts = list(accumulate(multiplicities, initial=0))
    projectors = np.empty((len(multiplicities), dim, dim), dtype=np.complex128)
    for size in sorted(set(multiplicities)):
        lines = [k for k, m in enumerate(multiplicities) if m == size]
        cols = vectors[:, [range(firsts[k], firsts[k] + size) for k in lines]].transpose(1, 0, 2)
        batch = cols @ cols.conj().transpose(0, 2, 1)
        if len(lines) == len(multiplicities):
            return batch
        projectors[lines] = batch
    return projectors


def phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component of magnitude > ``PHASE_PIVOT_THRESHOLD`` is real positive.

    Projectors are phase-invariant, but reported eigenvectors should be
    deterministic across runs and platforms. One ``argmax`` over the
    (rows, columns) mask finds every column's pivot, and one broadcast
    multiply rotates every column that has one by ``conj(pivot) / |pivot|``,
    the product that rotating each column on its own gives; a column with
    no such component is left as it is.
    """
    out = np.array(vectors, dtype=np.complex128, copy=True)
    above = np.abs(out) > PHASE_PIVOT_THRESHOLD
    columns = np.flatnonzero(above.any(axis=0))
    pivots = out[above.argmax(axis=0)[columns], columns]
    # hypot is the scalar abs(pivot) of the rotation written per column; np.abs of a complex array can differ
    rotations = np.conj(pivots) / np.hypot(pivots.real, pivots.imag)
    if len(columns) == out.shape[1]:
        out *= rotations
    else:
        out[:, columns] *= rotations
    return out


class Observable:
    """A Hermitian matrix together with its cached spectral record.

    The record is the distinct eigenvalues (ascending), their
    multiplicities, the phase-fixed eigenvectors and ``projectors``, the
    line projectors as one (lines, dim, dim) array. Each part is a
    ``functools.cached_property`` (``_eigh``, ``_lines``, ``projectors``),
    computed on first access and then shared; instances are immutable. The
    lifted and sum observables that ``eprkit.composite`` builds from a factor
    observable come with their lines already assembled from the factor's:
    ``_set_lines`` seeds ``_lines`` and ``projectors`` with them, so reading
    them runs no eigensolver.
    """

    def __init__(self, matrix):
        m = require_hermitian(matrix, name="observable")
        if m.shape[0] > MAX_DIM:
            raise DimensionMismatchError(f"dimension {m.shape[0]} exceeds the supported envelope of {MAX_DIM}")
        m.setflags(write=False)
        self._matrix = m
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

    def _set_lines(self, eigenvalues, multiplicities: tuple[int, ...], projectors: np.ndarray) -> None:
        """Seed the line caches with assembled lines: their eigenvalues, multiplicities and projectors."""
        eigenvalues = np.array(eigenvalues, dtype=float)
        eigenvalues.setflags(write=False)
        projectors.setflags(write=False)
        self._lines = eigenvalues, multiplicities
        self.projectors = projectors

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigensolver's ascending raw eigenvalues and phase-fixed eigenvector columns."""
        w, v = np.linalg.eigh(self._matrix)
        v = phase_fix(v)
        v.setflags(write=False)
        return w, v

    @cached_property
    def _lines(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The line eigenvalues, each the mean of its group of raw eigenvalues, and their multiplicities."""
        w = self._eigh[0]
        groups = group_close_values(w, default_grouping_tol(w))
        eigenvalues = np.array(group_means(w, [group[0] for group in groups] + [w.size]), dtype=float)
        eigenvalues.setflags(write=False)
        return eigenvalues, tuple(len(group) for group in groups)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Distinct eigenvalues, strictly increasing, as one read-only array."""
        return self._lines[0]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return self._lines[1]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Phase-fixed eigenvector columns, ascending eigenvalue order.

        Canonical only when the spectrum is nondegenerate; within a degenerate
        block the basis is whatever the eigensolver returned.
        """
        return self._eigh[1]

    @cached_property
    def projectors(self) -> np.ndarray:
        """The line projectors as one read-only (lines, dim, dim) array, built once.

        Line k projects onto its group of eigenvector columns V_k as
        ``V_k V_k^H`` (``line_projectors``).
        """
        projectors = line_projectors(self.eigenvectors, self.multiplicities)
        projectors.setflags(write=False)
        return projectors

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
