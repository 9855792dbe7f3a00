"""Pure states and prediction on a single observable.

Covers outcome probabilities, the best predictor of a function of an
observable, its prediction error, the Heisenberg audit for a commutation
triple, and the vanishing-trace/vanishing-diagonal check that dissolves the
EPR objection in finite dimensions. ``SpectrumFunction`` is the package's
one function table: f on A's spectrum, e on the sum spectrum, and, through
``conditional.PairSpectrumFunction``, H on the jointly observable (a, s)
pairs. Its keys and values are finite, so no lookup returns a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, SpectrumCoverageError
from .linalg import Observable, as_complex_matrix, default_grouping_tol, extract_c, match_value

# Input vectors shorter than this are rejected rather than silently normalized.
MIN_STATE_NORM = 1e-8

# Slack allowed when flagging an uncertainty product as satisfying its bound, relative to max(1, max |C|).
HUP_SLACK = 1e-10

PHASE_EQUAL_TOL = 1e-10

# Largest distance from 1 allowed for the total probability of one measurement.
PROBABILITY_SUM_TOL = 1e-10


def normalize(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide every complex vector along the last axis by its 2-norm; return the unit vectors and the norms.

    Each norm is ``sqrt(re.re + im.im)``, the arithmetic ``np.linalg.norm``
    uses on one complex vector, so a stack of vectors normalizes bit for bit
    as each would alone. Raises ValueError when an amplitude is not finite or
    a norm falls below ``MIN_STATE_NORM`` or overflows.
    """
    if not np.isfinite(vectors).all():
        raise ValueError("state amplitudes must be finite")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(vectors.real, vectors.real) + np.vecdot(vectors.imag, vectors.imag))
    if np.any(norms < MIN_STATE_NORM):
        raise ValueError(f"state vector norm {float(np.min(norms)):.3e} is below {MIN_STATE_NORM}")
    if not np.isfinite(norms).all():
        raise ValueError("state vector norm overflows the float range")
    return vectors / norms[..., None], norms


def _require_integer(value, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int if it is a Python or numpy integer in [low, high]; else ValueError (bool, float, str too).

    This is the package's one integer check: factor dims, a scenario file's
    ``factor_dim``, shots, seeds and shot counts all go through it. Its
    message shows at most ``_SHOWN_CHARS`` characters of the value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {_shown(value)}")
    return int(value)


# Characters of a refused value that an error message shows.
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """``repr(value)`` cut to ``_SHOWN_CHARS`` characters, ending in "..." where cut.

    An int too long to show is named by its bit length instead: ``repr``
    of one past 4,300 digits raises Python's digit-limit error.
    """
    if isinstance(value, int) and value.bit_length() > 4 * _SHOWN_CHARS:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


class PureState:
    """A normalized complex vector on a (possibly composite) Hilbert space.

    ``factor_dims`` records the tensor factorization, e.g. ``(2, 2)`` for two
    qubits; the flat amplitude order is lexicographic with the first factor as
    the slow index. Each factor dim passes ``_require_integer`` at 1 or more.
    Construction normalizes the input (preserving its phase) and records the
    applied scale.
    """

    def __init__(self, amplitudes, factor_dims=None):
        vec, norm = normalize(np.ascontiguousarray(amplitudes, dtype=np.complex128).reshape(-1))
        if factor_dims is None:
            factor_dims = (vec.size,)
        try:
            factor_dims = tuple(_require_integer(d, "factor dim", 1) for d in factor_dims)
        except ValueError as exc:
            raise DimensionMismatchError(str(exc)) from None
        if math.prod(factor_dims) != vec.size:
            raise DimensionMismatchError(
                f"factor dims {factor_dims} do not multiply to vector length {vec.size}"
            )
        vec.setflags(write=False)
        self._amplitudes = vec
        self._factor_dims = factor_dims
        self._norm_scale = float(norm)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self._factor_dims

    @property
    def dim(self) -> int:
        return self._amplitudes.size

    @property
    def norm_scale(self) -> float:
        """Norm of the raw input vector before normalization."""
        return self._norm_scale

    def overlap(self, other: "PureState") -> complex:
        if other.dim != self.dim:
            raise DimensionMismatchError("states live on different spaces")
        return complex(np.vdot(self._amplitudes, other._amplitudes))

    def equals_up_to_phase(self, other: "PureState") -> bool:
        """Physical equality: ``|<self|other>| >= 1 - PHASE_EQUAL_TOL``."""
        return abs(self.overlap(other)) >= 1.0 - PHASE_EQUAL_TOL

    def expectation(self, matrix) -> complex:
        """Quadratic form ``<psi|M|psi>``."""
        m = as_complex_matrix(matrix)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"matrix shape {m.shape} does not act on dim {self.dim}")
        return complex(np.vdot(self._amplitudes, m @ self._amplitudes))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim}, factors={self._factor_dims})"


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the distinct outcomes of one observable, ascending."""

    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not all(math.isfinite(v) and math.isfinite(p) and p >= 0 for v, p in self.outcomes):
            raise ValueError("outcome values and probabilities must be finite, and probabilities nonnegative")
        values = [v for v, _ in self.outcomes]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("outcome values must be strictly increasing")
        total = sum(p for _, p in self.outcomes)
        if not (abs(total - 1.0) <= PROBABILITY_SUM_TOL):
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_lines(cls, obs: Observable, probabilities: np.ndarray) -> OutcomeDistribution:
        """The distribution of ``obs`` from one probability per line, in the order of its lines."""
        return cls(tuple(zip(obs.eigenvalues.tolist(), probabilities.tolist())))

    @cached_property
    def values(self) -> np.ndarray:
        return read_only_column(self.outcomes, 0)

    @cached_property
    def probabilities(self) -> np.ndarray:
        return read_only_column(self.outcomes, 1)

    def probability_of(self, value: float) -> float:
        """Probability of the outcome within the outcomes' grouping tolerance of value."""
        values = self.values
        idx = match_value(values, value, default_grouping_tol(values))
        return self.outcomes[idx][1]

    def mean_of(self, fvals) -> float:
        """``sum_k f(v_k) p_k`` for f's values ``fvals`` on the outcomes: the mean of ``moments``."""
        return self.moments(fvals)[0]

    def moments(self, fvals=None) -> tuple[float, float]:
        """Mean and standard deviation of f(value), given f's values on the outcomes (default: the values)."""
        fvals = self.values if fvals is None else np.asarray(fvals, dtype=float)
        if fvals.shape != self.probabilities.shape:
            raise ValueError(f"{fvals.size} function values for {len(self.outcomes)} outcomes")
        mean, stdev = spectral_moments(fvals, self.probabilities)
        return float(mean), float(stdev)


def read_only_column(pairs, i: int) -> np.ndarray:
    """Entry i of every pair as one read-only array, built once for a frozen distribution."""
    column = np.array([pair[i] for pair in pairs])
    column.setflags(write=False)
    return column


def spectral_moments(fvals: np.ndarray, probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of f along the last axis, for f's values on the outcomes.

    This is the package's one mean and variance. The mean ``sum_k f_k p_k``
    is accumulated in outcome order: ``cumsum`` adds left to right, as
    Python's ``sum`` does, so a stack of distributions gives each row the
    bits it would have alone, and adding 0.0 turns a -0.0 total into the 0.0
    that ``sum``'s integer start gives. The variance is ``sum_k p_k (f_k -
    mean)^2`` about that same mean, never ``E[f^2] - E[f]^2``, which loses
    all precision near zero.
    """
    mean = np.cumsum(fvals * probabilities, axis=-1)[..., -1] + 0.0
    var = np.vecdot((fvals - mean[..., None]) ** 2, probabilities)
    return mean, np.sqrt(np.maximum(var, 0.0))


class SpectrumFunction:
    """A real function given as a table over an observable's eigenvalues, or over tuples of them.

    This is the package's one function table. Keys are numbers, or
    equal-length tuples of numbers such as ``PairSpectrumFunction``'s
    (a, s) pairs, and keys and values must be finite. Lookups match keys
    within a tolerance, since spectrum values arrive as floats from an
    eigensolver while tables are often written as decimal literals: the
    tolerance, ``match_tol``, is 1e-9 times the largest |key coordinate|,
    as the spectral grouping's is.
    """

    def __init__(self, table: dict[float | tuple[float, ...], float]):
        if not table:
            raise ValueError("spectrum function table is empty")
        self._table = dict(sorted(table.items()))
        self._keys = np.array(list(self._table), dtype=float)
        self._values = np.array(list(self._table.values()), dtype=float)
        if not (np.isfinite(self._keys).all() and np.isfinite(self._values).all()):
            raise ValueError("spectrum function keys and values must be finite")
        self.match_tol = default_grouping_tol(self._keys)

    @classmethod
    def identity(cls, spectrum) -> "SpectrumFunction":
        return cls({float(a): float(a) for a in spectrum})

    @classmethod
    def constant(cls, spectrum, c: float) -> "SpectrumFunction":
        return cls({float(a): float(c) for a in spectrum})

    @classmethod
    def from_callable(cls, spectrum, fn) -> "SpectrumFunction":
        return cls({float(a): float(fn(a)) for a in spectrum})

    def __call__(self, value: float | tuple[float, ...]) -> float:
        idx = match_value(self._keys, value, self.match_tol)
        return float(self._values[idx])

    def values_at(self, points) -> list[float]:
        """``[self(x) for x in points]`` for numbers x, in one sorted lookup over the keys.

        The keys are sorted and distinct, so the nearest key to x is one of
        its two neighbours in key order, found by ``searchsorted``; rounding
        can leave keys further left exactly as near, and as in
        ``match_value`` the first of equally near keys wins. A point that
        matches no key raises ``match_value``'s error for the first such point.
        """
        if self._keys.ndim > 1:  # a number has the shape of no tuple key: match_value names the first point
            return [self(x) for x in points]
        x = np.asarray(points, dtype=float)
        keys = self._keys
        right = np.minimum(np.searchsorted(keys, x), keys.size - 1)
        left = np.maximum(right - 1, 0)
        idx = np.where(np.abs(keys[left] - x) <= np.abs(keys[right] - x), left, right)
        distance = np.abs(keys[idx] - x)
        while (tied := (idx > 0) & (np.abs(keys[idx - 1] - x) == distance)).any():
            idx[tied] -= 1
        missed = np.flatnonzero(~(distance <= self.match_tol))
        if missed.size:
            self(points[missed[0]])
        return self._values[idx].tolist()

    def covers(self, spectrum) -> bool:
        try:
            for a in spectrum:
                self(a)
        except SpectrumCoverageError:
            return False
        return True

    def squared(self) -> "SpectrumFunction":
        """The table of f^2, each value squared as ``v * v``, which is correctly rounded.

        A square beyond the float range is inf, which the table rejects with ValueError.
        """
        return SpectrumFunction({k: v * v for k, v in zip(self._table, self._values.tolist())})


@dataclass(frozen=True)
class UncertaintyReport:
    """One Heisenberg audit: prediction errors against half the C expectation."""

    delta_a: float
    delta_b: float
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class DiagonalVanishingReport:
    """Residuals for the vanishing trace and vanishing diagonal of C.

    ``a_degenerate`` flags that the diagonal was evaluated in one particular
    (non-canonical) eigenbasis choice.
    """

    trace_residual: float
    max_diag_residual: float
    c_norm: float
    a_degenerate: bool


def projected_probabilities(projected: np.ndarray) -> np.ndarray:
    """Outcome probabilities ``p_k = |P_k psi|^2``, clamped to [0, 1], from each ``P_k psi`` flattened on the last axis.

    Leading axes index lines, and states before them when a stack of states
    was measured. ``vecdot`` takes every squared norm in one call, with the
    arithmetic of ``vdot`` on each.
    """
    return np.clip(np.vecdot(projected, projected).real, 0.0, 1.0)


def project_outcomes(state: PureState, obs: Observable) -> tuple[OutcomeDistribution, list[np.ndarray]]:
    """``outcome_probabilities`` with each line's ``P_k psi``, the unnormalized state outcome k leaves."""
    if state.dim != obs.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != observable dim {obs.dim}")
    projected = [projector @ state.amplitudes for projector in obs.projectors]
    return OutcomeDistribution.from_lines(obs, projected_probabilities(np.array(projected))), projected


def outcome_probabilities(state: PureState, obs: Observable) -> OutcomeDistribution:
    """Distribution of measurement outcomes: ``p(s_k) = <psi|P_k|psi>``.

    Evaluated as ``|P_k psi|^2``, which is the same number for a projector but
    loses only quadratically small precision near zero, so eigenstates report
    genuinely negligible probabilities for the other outcomes.
    """
    return project_outcomes(state, obs)[0]


def best_predictor(state: PureState, obs: Observable, f: SpectrumFunction) -> float:
    """Expected value of ``f(A)``: the predictor minimizing mean squared error.

    Evaluated as the spectral sum ``sum_k f(a_k) p(a_k)``, which equals the
    quadratic form ``<psi|f(A)|psi>``.
    """
    dist = outcome_probabilities(state, obs)
    return dist.mean_of([f(v) for v in dist.values])


def prediction_error(state: PureState, obs: Observable) -> float:
    """Smallest achievable prediction error ``sqrt(<(A - <A>)^2>)``.

    Zero exactly when the state is (numerically) an eigenstate.
    """
    return outcome_probabilities(state, obs).moments()[1]


def audit_uncertainty(state: PureState, a: Observable, b: Observable, c: Observable) -> UncertaintyReport:
    """Check ``Delta(A) * Delta(B) >= |<C>| / 2`` in the given state."""
    if not (a.dim == b.dim == c.dim == state.dim):
        raise DimensionMismatchError("audit requires all operands on one space")
    return uncertainty_report(
        prediction_error(state, a),
        prediction_error(state, b),
        0.5 * abs(state.expectation(c.matrix)),
        float(np.abs(c.matrix).max()),
    )


def uncertainty_satisfied(delta_a, delta_b, rhs, c_magnitude: float):
    """Judge ``delta_a * delta_b >= rhs``, the bound's right-hand side ``|<C>| / 2`` already evaluated.

    Takes floats, or float arrays judged entry by entry with the same
    arithmetic. ``c_magnitude`` is C's largest |entry|. Where the bound
    vanishes, as on a product eigenstate of A, rhs still rounds to about
    eps * |C|, so the slack is ``HUP_SLACK`` times max(1, c_magnitude).
    """
    return delta_a * delta_b >= rhs - HUP_SLACK * max(1.0, c_magnitude)


def uncertainty_report(delta_a: float, delta_b: float, rhs: float, c_magnitude: float) -> UncertaintyReport:
    """One audit, judged by ``uncertainty_satisfied``."""
    return UncertaintyReport(
        delta_a=delta_a,
        delta_b=delta_b,
        rhs=rhs,
        satisfied=uncertainty_satisfied(delta_a, delta_b, rhs, c_magnitude),
    )


def verify_theorem1(a: Observable, b: Observable, alpha: float = 1.0) -> DiagonalVanishingReport:
    """Residuals of the two structural identities for ``C = [A, B] / (i*alpha)``.

    The trace of C vanishes, and so does every diagonal element of C in the
    eigenbasis of A; the latter is what makes a zero-error prediction of A
    compatible with the uncertainty bound.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("observables act on different spaces")
    c = extract_c(a, b, alpha)
    diag = np.einsum("ij,jk,ki->i", a.eigenvectors.conj().T, c, a.eigenvectors)
    return DiagonalVanishingReport(
        trace_residual=abs(complex(np.trace(c))),
        max_diag_residual=float(np.abs(diag).max()),
        c_norm=float(np.linalg.norm(c)),
        a_degenerate=not a.is_nondegenerate,
    )
