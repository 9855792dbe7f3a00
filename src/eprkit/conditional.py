"""Conditioning on an observed value of the conserved sum.

Once S = A(1) + A(2) has been measured, predictions about either factor are
made in the collapsed state, and they coincide with classically conditioning
the joint outcome distribution on the observed sum. Every entry point runs
the projector route (collapse, then predict) on the state's N x N
coefficient matrix psi with the factor-space measurements of
``eprkit.composite`` (``project_sum``, ``project_slot``,
``slot_expectation``), as the analysis does, so none builds an N^2 x N^2
operator; the pinning and tower checks also read the joint weights |K|^2,
K = V^H psi conj(V). ``oracle_conditional`` is the brute-force classical
conditioning that never touches a projector, so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .composite import (
    ZERO_PROB_THRESHOLD,
    AntiDiagonalIndex,
    _composite_factor_dim,
    anti_diagonal_index,
    collapse,
    project_slot,
    project_sum,
    slot_expectation,
)
from .errors import DegenerateSpectrumError, DimensionMismatchError, SpectrumCoverageError
from .linalg import Observable, default_grouping_tol, group_close_values, match_value
from .states import (
    PROBABILITY_SUM_TOL,
    OutcomeDistribution,
    PureState,
    SpectrumFunction,
    UncertaintyReport,
    read_only_column,
    uncertainty_report,
)

# Slack below 1 allowed for the point mass of A(2) after the full chain.
POINT_MASS_TOL = 1e-10


@dataclass(frozen=True)
class ConditionalDistribution:
    """Distribution of first-factor outcomes given an observed sum."""

    given_sum: float
    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if not (abs(total - 1.0) <= PROBABILITY_SUM_TOL):
            raise ValueError(f"conditional probabilities sum to {total!r}, not 1")

    @cached_property
    def values(self) -> np.ndarray:
        return read_only_column(self.support, 0)

    @cached_property
    def probabilities(self) -> np.ndarray:
        return read_only_column(self.support, 1)

    def probability_of(self, value: float, tol: float | None = None) -> float:
        """Probability of the support value within tol of value (default: the support's grouping tolerance)."""
        values = self.values
        idx = match_value(values, value, default_grouping_tol(values) if tol is None else tol)
        return self.support[idx][1]


@dataclass(frozen=True)
class PredictionSummary:
    """Mean and standard deviation of one predicted quantity."""

    mean: float
    stdev: float


@dataclass(frozen=True)
class SumConstraintReport:
    """How exactly the two factors' conditional moments are locked by the sum."""

    mean_identity_residual: float
    stdev_gap: float


@dataclass(frozen=True)
class CertainPrediction:
    """A zero-error prediction for the unmeasured factor after the full chain."""

    value: float
    stdev: float
    delta_check: OutcomeDistribution


@dataclass(frozen=True)
class ConditionalExpectationTable:
    """e(s_k) for every sum eigenvalue of positive probability, ascending."""

    entries: tuple[tuple[float, float], ...]
    match_tol: float

    @property
    def sums(self) -> np.ndarray:
        return np.array([s for s, _ in self.entries])

    def value_at(self, s_value: float) -> float:
        idx = match_value(self.sums, s_value, self.match_tol)
        return self.entries[idx][1]

    def as_spectrum_function(self) -> SpectrumFunction:
        return SpectrumFunction({s: e for s, e in self.entries}, match_tol=self.match_tol)


class PairSpectrumFunction:
    """A real function of (first-factor outcome, sum outcome) pairs as a table.

    A lookup returns the nearest entry, within a tolerance scaled to the
    table's largest value, as ``EprReport.chain_for`` does.
    """

    def __init__(self, entries: dict[tuple[float, float], float]):
        if not entries:
            raise ValueError("pair function table is empty")
        self._pairs = np.array([(float(a), float(s)) for a, s in entries])
        self._values = [float(v) for v in entries.values()]
        self._tol = default_grouping_tol(self._pairs)

    @classmethod
    def from_callable(cls, index: AntiDiagonalIndex, fn) -> "PairSpectrumFunction":
        """Tabulate fn over every jointly observable (a_n, s_k) pair."""
        entries = {}
        for s, members in zip(index.sums, index.sets):
            for n, _ in members:
                a = index.factor_eigenvalues[n]
                entries[(a, s)] = fn(a, s)
        return cls(entries)

    def __call__(self, a_value: float, s_value: float) -> float:
        distance = np.abs(self._pairs - (a_value, s_value)).max(axis=1)
        i = int(np.argmin(distance))
        if not (distance[i] <= self._tol):
            raise SpectrumCoverageError(f"pair ({a_value!r}, {s_value!r}) not in the function table")
        return self._values[i]


def _coefficients(state: PureState, a: Observable) -> np.ndarray:
    """The state's N x N coefficient matrix for the factor observable A, first factor as rows."""
    n = a.dim
    if state.dim != n * n:
        raise DimensionMismatchError(f"state dim {state.dim} is not the composite dim {n * n}")
    return state.amplitudes.reshape(n, n)


def _slot_distribution(psi: np.ndarray, obs: Observable, slot: int) -> OutcomeDistribution:
    """Outcome distribution of a factor observable measured on one slot of the coefficient matrix psi."""
    probabilities = project_slot(psi, obs, slot)[0]
    return OutcomeDistribution(tuple(zip(obs.eigenvalues.tolist(), probabilities.tolist())))


def _sum_branch(state: PureState, a: Observable, s_value: float) -> tuple[np.ndarray, int]:
    """The coefficient matrix of the state collapsed on the sum line matching s_value, and that line's index."""
    a.require_nondegenerate()
    k = anti_diagonal_index(a).sum_index(s_value)
    probabilities, lines = project_sum(_coefficients(state, a), a)
    return _coefficients(collapse(state, lines[k], float(probabilities[k])), a), k


def _joint_weights(psi: np.ndarray, a: Observable) -> np.ndarray:
    """|K|^2 with K = V^H psi conj(V), for a nondegenerate A: the probability of each product eigenstate |a_n>|a_m>."""
    v = a.eigenvectors
    return np.abs(v.conj().T @ psi @ v.conj()) ** 2


def conditional_distribution(state: PureState, a: Observable, s_value: float) -> ConditionalDistribution:
    """First-factor outcome probabilities given that the sum was observed as s_value.

    Computed along the projector route: collapse onto the sum line, then
    measure A(1) in the collapsed state. The support is exactly the set of
    first-factor eigenvalues compatible with the observed sum.
    """
    psi_s, k = _sum_branch(state, a, s_value)
    return conditional_distribution_from(project_slot(psi_s, a, 1)[0], anti_diagonal_index(a), k)


def conditional_distribution_from(a1_probabilities, index: AntiDiagonalIndex, k: int) -> ConditionalDistribution:
    """``conditional_distribution`` from the A(1) probabilities, by A's index, in the state collapsed on sum line k."""
    pairs = index.sets[k]
    if len({n for n, _ in pairs}) < len(pairs):
        raise DegenerateSpectrumError(f"A is too close to degenerate: sum {index.sums[k]!r} pins no A(2) outcome")
    support = tuple((index.factor_eigenvalues[n], float(a1_probabilities[n])) for n, _ in pairs)
    return ConditionalDistribution(given_sum=index.sums[k], support=support)


def conditional_prediction(state: PureState, a: Observable, f: SpectrumFunction, s_value: float) -> PredictionSummary:
    """Mean and error of f(A(1)) predicted after the sum was observed as s_value."""
    f.require_covers(a.eigenvalues)
    psi_s, _ = _sum_branch(state, a, s_value)
    mean, stdev = _slot_distribution(psi_s, a, 1).moments([f(v) for v in a.eigenvalues])
    return PredictionSummary(mean=mean, stdev=stdev)


def verify_theorem2(state: PureState, a: Observable, s_value: float) -> SumConstraintReport:
    """Residuals of the post-measurement identities m(A2) = s - m(A1), D(A1) = D(A2)."""
    psi_s, k = _sum_branch(state, a, s_value)
    return verify_theorem2_from(
        _slot_distribution(psi_s, a, 1),
        _slot_distribution(psi_s, a, 2),
        a,
        anti_diagonal_index(a).sums[k],
    )


def verify_theorem2_from(
    a1_dist: OutcomeDistribution, a2_dist: OutcomeDistribution, a: Observable, s_value: float
) -> SumConstraintReport:
    """``verify_theorem2`` from the A(1) and A(2) distributions, by A's index, in the state collapsed on sum s_value."""
    mean1, stdev1 = a1_dist.moments(a.eigenvalues)
    mean2, stdev2 = a2_dist.moments(a.eigenvalues)
    return SumConstraintReport(
        mean_identity_residual=abs(mean2 - (s_value - mean1)),
        stdev_gap=abs(stdev1 - stdev2),
    )


def sequential_measure(state: PureState, a: Observable, s_value: float, a1_value: float) -> PureState:
    """Collapse on S = s_value, then on A(1) = a1_value.

    The result is the product basis state |a1, s - a1> up to a global phase.
    Either stage raises ImpossibleOutcomeError when its outcome has
    (numerically) zero probability in the current state.
    """
    psi_s, _ = _sum_branch(state, a, s_value)
    n = match_value(a.eigenvalues, a1_value, a.grouping_tol)
    probabilities, projected = project_slot(psi_s, a, 1)
    return collapse(state, projected[n], float(probabilities[n]))


def certain_prediction(
    phi: PureState,
    a: Observable,
    g: SpectrumFunction,
    s_value: float,
    a1_value: float,
) -> CertainPrediction:
    """Predict g(A(2)) in the state left by the full measurement chain.

    After S = s and A(1) = a1 the second factor is pinned to the partner m
    of a1's pair (n, m) on the sum line, so the prediction carries zero error
    and the outcome distribution of A(2) is a point mass there. The partner
    is read off the sum index, as the analysis reads it, so a line that
    merged near-coincident sums still pins its A(2) outcome. Everything is
    still computed honestly in the state; the chain values only identify
    which point mass to expect.
    """
    g.require_covers(a.eigenvalues)
    index = anti_diagonal_index(a)
    k = index.sum_index(s_value)
    n = match_value(a.eigenvalues, a1_value, a.grouping_tol)
    partners = [m for row, m in index.sets[k] if row == n]
    if len(partners) != 1:
        raise SpectrumCoverageError(f"a1 = {a1_value!r} pins no single A(2) outcome on sum {index.sums[k]!r}")
    a2_dist = _slot_distribution(_coefficients(phi, a), a, 2)
    return certain_prediction_from(a2_dist, partners[0], [g(v) for v in a.eigenvalues])


def certain_prediction_from(a2_dist: OutcomeDistribution, target: int, gvals) -> CertainPrediction:
    """``certain_prediction`` from the A(2) distribution, by A's index, in the post-chain state.

    ``target`` is the index of A(2)'s pinned eigenvalue, a1's partner on the sum line, and ``gvals`` holds g on A's
    eigenvalues.
    """
    if not (a2_dist.probabilities[target] >= 1.0 - POINT_MASS_TOL):
        raise ValueError("state was not produced by the measurement chain for (s_value, a1_value)")
    mean, stdev = a2_dist.moments(gvals)
    return CertainPrediction(value=mean, stdev=stdev, delta_check=a2_dist)


def epr_resolution_check(phi: PureState, a: Observable, b: Observable, c: Observable) -> UncertaintyReport:
    """Audit the uncertainty bound for the second factor after the chain.

    In a product eigenstate of A(1) x A(2) the expectation of C(2) is a
    diagonal element of C in the A eigenbasis, which vanishes; the bound's
    right-hand side is therefore zero and a zero-error prediction of A(2)
    contradicts nothing.
    """
    if not (a.dim == b.dim == c.dim):
        raise DimensionMismatchError("audit requires all operands on one space")
    psi = _coefficients(phi, a)
    return uncertainty_report(
        _slot_distribution(psi, a, 2).moments()[1],
        _slot_distribution(psi, b, 2).moments()[1],
        0.5 * abs(complex(slot_expectation(psi, c, 2))),
    )


def quantum_conditional_expectation(state: PureState, a: Observable, f: SpectrumFunction) -> ConditionalExpectationTable:
    """The function e on the sum spectrum with E[e(S) G(S)] = E[f(A1) G(S)] for all G.

    Evaluated along the projector route: e(s_k) = <psi_k| f(A1) |psi_k> in
    each collapsed branch of positive probability.
    """
    f.require_covers(a.eigenvalues)
    return _expectation_table(a, f, *project_sum(_coefficients(state, a), a))


def _expectation_table(
    a: Observable, f: SpectrumFunction, probabilities: np.ndarray, lines: np.ndarray
) -> ConditionalExpectationTable:
    """``quantum_conditional_expectation`` from the sum probabilities and each line's projected matrix P_k psi.

    <psi_k| f(A1) |psi_k> is sum_n f(a_n) |P_n psi_k|^2: f's values against
    A(1) measured on each populated line.
    """
    index = anti_diagonal_index(a)
    kept = np.flatnonzero(probabilities >= ZERO_PROB_THRESHOLD)
    weights = project_slot(lines[kept], a, 1)[0]
    e = weights @ np.array([f(v) for v in a.eigenvalues]) / probabilities[kept]
    entries = tuple(zip([index.sums[k] for k in kept.tolist()], e.tolist()))
    return ConditionalExpectationTable(entries=entries, match_tol=index.match_tol)


def oracle_conditional(state: PureState, a: Observable, f: SpectrumFunction) -> ConditionalExpectationTable:
    """Brute-force classical conditioning; the ground truth for the projector route.

    Extracts the joint coefficients directly, enumerates all N^2 outcome
    pairs, groups their sums, and conditions the resulting classical table.
    No projector machinery is involved.
    """
    a.require_nondegenerate()
    n_dim = a.dim
    if state.dim != n_dim * n_dim:
        raise DimensionMismatchError(f"state dim {state.dim} is not the composite dim {n_dim * n_dim}")
    v = a.eigenvectors
    coeff = v.conj().T @ state.amplitudes.reshape(n_dim, n_dim) @ v.conj()
    q = np.abs(coeff) ** 2
    values = a.eigenvalues

    pair_sums = np.array([values[i] + values[j] for i in range(n_dim) for j in range(n_dim)])
    pair_index = [(i, j) for i in range(n_dim) for j in range(n_dim)]
    order = np.argsort(pair_sums, kind="stable")
    tol = 1e-9 * float(np.abs(pair_sums).max())
    entries = []
    for group in group_close_values(pair_sums[order], tol):
        members = [pair_index[order[g]] for g in group]
        p = sum(q[i, j] for i, j in members)
        if p >= ZERO_PROB_THRESHOLD:
            e = sum(f(values[i]) * q[i, j] for i, j in members) / p
            entries.append((float(np.mean(pair_sums[order[list(group)]])), float(e)))
    return ConditionalExpectationTable(entries=tuple(entries), match_tol=tol)


def verify_tower_property(
    state: PureState,
    a: Observable,
    f: SpectrumFunction,
    g: SpectrumFunction,
) -> float:
    """Residual of E[e(S) G(S)] = E[f(A1) G(S)] for the given G.

    The left side contracts the conditional-expectation table against the sum
    distribution; the right side is a direct double sum over the joint
    weights |K|^2, with no conditioning involved.
    """
    index = anti_diagonal_index(a)
    g.require_covers(index.sums)
    f.require_covers(a.eigenvalues)
    probabilities, lines = project_sum(_coefficients(state, a), a)
    table = _expectation_table(a, f, probabilities, lines)
    kept = probabilities[probabilities >= ZERO_PROB_THRESHOLD].tolist()
    lhs = sum(g(s) * e * p for (s, e), p in zip(table.entries, kept))

    a.require_nondegenerate()
    _composite_factor_dim(state, a.dim)
    q = _joint_weights(_coefficients(state, a), a)
    fvals = [f(v) for v in a.eigenvalues]
    # G is read at each pair's grouped sum, not the raw a_n + a_m,
    # so merged near-coincident sums cannot drift outside G's match tolerance
    rhs = sum(g(s) * fvals[n] * q[n, m] for s, members in zip(index.sums, index.sets) for n, m in members)
    return abs(lhs - float(rhs))


def verify_ce2(
    state: PureState,
    a: Observable,
    h: PairSpectrumFunction,
    s_value: float,
    a1_value: float,
) -> float:
    """Residual of the pinning identity: conditioning H(A1, S) on observed (a1, s) yields H(a1, s).

    H(A1, S) is evaluated in the post-chain state from its joint weights
    |K|^2: the product eigenstate |a_n>|a_m> of a pair on sum line k is a
    joint eigenstate of A1 and S with value H(a_n, s_k).
    """
    phi = sequential_measure(state, a, s_value, a1_value)
    index = anti_diagonal_index(a)
    q = _joint_weights(_coefficients(phi, a), a)
    predicted = sum(
        h(index.factor_eigenvalues[n], s) * q[n, m] for s, members in zip(index.sums, index.sets) for n, m in members
    )
    k = index.sum_index(s_value)
    n = match_value(a.eigenvalues, a1_value, a.grouping_tol)
    return abs(float(predicted) - h(float(a.eigenvalues[n]), index.sums[k]))
