"""Conditioning on an observed value of the conserved sum.

Once S = A(1) + A(2) has been measured, predictions about either factor are
made in the collapsed state, and they coincide with classically conditioning
the joint outcome distribution on the observed sum. Both routes are
implemented here: the projector route (collapse, then predict) and a
brute-force classical oracle that never touches a projector, so each can
check the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import (
    ZERO_PROB_THRESHOLD,
    AntiDiagonalIndex,
    SumObservable,
    collapse,
    joint_distribution,
    lift,
    sum_observable,
)
from .errors import DegenerateSpectrumError, DimensionMismatchError, SpectrumCoverageError
from .linalg import Observable, default_grouping_tol, group_close_values, match_value, tensor_product
from .states import (
    OutcomeDistribution,
    PureState,
    SpectrumFunction,
    UncertaintyReport,
    audit_uncertainty,
    function_matrix,
    outcome_probabilities,
    project_outcomes,
)


@dataclass(frozen=True)
class ConditionalDistribution:
    """Distribution of first-factor outcomes given an observed sum."""

    given_sum: float
    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if not (abs(total - 1.0) <= 1e-10):
            raise ValueError(f"conditional probabilities sum to {total!r}, not 1")

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.support])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.support])

    def probability_of(self, value: float, tol: float = 1e-9) -> float:
        idx = match_value(self.values, value, tol)
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


def _collapse_on_sum(state: PureState, a: Observable, s_value: float) -> tuple[PureState, int, SumObservable]:
    """Collapse onto the eigenspace of S matching s_value; returns the matched line's index too."""
    a.require_nondegenerate()
    s_obs = sum_observable(a)
    k = s_obs.index.sum_index(s_value)
    dist, projected = project_outcomes(state, s_obs)
    return collapse(state, projected[k], dist.outcomes[k][1]), k, s_obs


def conditional_distribution(state: PureState, a: Observable, s_value: float) -> ConditionalDistribution:
    """First-factor outcome probabilities given that the sum was observed as s_value.

    Computed along the projector route: collapse onto the sum eigenspace, then
    measure A(1) in the collapsed state. The support is exactly the set of
    first-factor eigenvalues compatible with the observed sum.
    """
    collapsed, k, s_obs = _collapse_on_sum(state, a, s_value)
    return conditional_distribution_from(outcome_probabilities(collapsed, lift(a, 1)), s_obs.index, k)


def conditional_distribution_from(
    a1_dist: OutcomeDistribution, index: AntiDiagonalIndex, k: int
) -> ConditionalDistribution:
    """``conditional_distribution`` from the A(1) distribution, by A's index, in the state collapsed on sum line k."""
    pairs = index.sets[k]
    if len({n for n, _ in pairs}) < len(pairs):
        raise DegenerateSpectrumError(f"A is too close to degenerate: sum {index.sums[k]!r} pins no A(2) outcome")
    support = tuple((index.factor_eigenvalues[n], a1_dist.outcomes[n][1]) for n, _ in pairs)
    return ConditionalDistribution(given_sum=index.sums[k], support=support)


def conditional_prediction(state: PureState, a: Observable, f: SpectrumFunction, s_value: float) -> PredictionSummary:
    """Mean and error of f(A(1)) predicted after the sum was observed as s_value."""
    f.require_covers(a.eigenvalues)
    collapsed, _, _ = _collapse_on_sum(state, a, s_value)
    mean, stdev = outcome_probabilities(collapsed, lift(a, 1)).moments([f(v) for v in a.eigenvalues])
    return PredictionSummary(mean=mean, stdev=stdev)


def verify_theorem2(state: PureState, a: Observable, s_value: float) -> SumConstraintReport:
    """Residuals of the post-measurement identities m(A2) = s - m(A1), D(A1) = D(A2)."""
    collapsed, k, s_obs = _collapse_on_sum(state, a, s_value)
    return verify_theorem2_from(
        outcome_probabilities(collapsed, lift(a, 1)),
        outcome_probabilities(collapsed, lift(a, 2)),
        a,
        s_obs.index.sums[k],
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
    collapsed, _, _ = _collapse_on_sum(state, a, s_value)
    n = match_value(a.eigenvalues, a1_value, a.grouping_tol)
    dist, projected = project_outcomes(collapsed, lift(a, 1))
    return collapse(collapsed, projected[n], dist.outcomes[n][1])


def certain_prediction(
    phi: PureState,
    a: Observable,
    g: SpectrumFunction,
    s_value: float,
    a1_value: float,
) -> CertainPrediction:
    """Predict g(A(2)) in the state left by the full measurement chain.

    After S = s and A(1) = a1 the second factor is pinned to s - a1, so the
    prediction carries zero error and the outcome distribution of A(2) is a
    point mass there. Everything is still computed honestly in the state; the
    chain values only identify which point mass to expect.
    """
    g.require_covers(a.eigenvalues)
    target = match_value(a.eigenvalues, s_value - a1_value, a.grouping_tol)
    a2_dist = outcome_probabilities(phi, lift(a, 2))
    return certain_prediction_from(a2_dist, target, [g(v) for v in a.eigenvalues])


def certain_prediction_from(a2_dist: OutcomeDistribution, target: int, gvals) -> CertainPrediction:
    """``certain_prediction`` from the A(2) distribution, by A's index, in the post-chain state.

    ``target`` is the index of the eigenvalue s - a1 of A, and ``gvals`` holds g on A's eigenvalues.
    """
    if not (a2_dist.probabilities[target] >= 1.0 - 1e-10):
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
    return audit_uncertainty(phi, lift(a, 2), lift(b, 2), lift(c, 2))


def quantum_conditional_expectation(state: PureState, a: Observable, f: SpectrumFunction) -> ConditionalExpectationTable:
    """The function e on the sum spectrum with E[e(S) G(S)] = E[f(A1) G(S)] for all G.

    Evaluated along the projector route: e(s_k) = <psi_k| f(A1) |psi_k> in
    each collapsed branch of positive probability.
    """
    f.require_covers(a.eigenvalues)
    s_obs = sum_observable(a)
    f_lifted = tensor_product(function_matrix(a, f), np.eye(a.dim))
    dist, projected = project_outcomes(state, s_obs)
    entries = []
    for (s, p), w in zip(dist.outcomes, projected):
        if p >= ZERO_PROB_THRESHOLD:
            e = float(np.real(np.vdot(w, f_lifted @ w))) / p
            entries.append((s, e))
    return ConditionalExpectationTable(entries=tuple(entries), match_tol=s_obs.index.match_tol)


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
    distribution, with no conditioning involved.
    """
    s_obs = sum_observable(a)
    g.require_covers(s_obs.eigenvalues)
    table = quantum_conditional_expectation(state, a, f)
    p = outcome_probabilities(state, s_obs)
    lhs = 0.0
    for s, prob in p.outcomes:
        if prob >= ZERO_PROB_THRESHOLD:
            lhs += g(s) * table.value_at(s) * prob

    q = joint_distribution(state, a)
    values = a.eigenvalues
    # look G up at the grouped sum for each pair, not the raw a_i + a_j,
    # so merged near-coincident sums cannot drift outside G's match tolerance
    index = s_obs.index
    sum_of_pair = {pair: s for s, members in zip(index.sums, index.sets) for pair in members}
    rhs = 0.0
    for i in range(a.dim):
        for j in range(a.dim):
            rhs += f(values[i]) * g(sum_of_pair[(i, j)]) * q.q[i, j]
    return abs(lhs - rhs)


def verify_ce2(
    state: PureState,
    a: Observable,
    h: PairSpectrumFunction,
    s_value: float,
    a1_value: float,
) -> float:
    """Residual of the pinning identity: conditioning H(A1, S) on observed (a1, s) yields H(a1, s).

    H(A1, S) is assembled as an operator from the joint eigenprojectors of the
    commuting pair and evaluated in the post-chain state.
    """
    phi = sequential_measure(state, a, s_value, a1_value)
    s_obs = sum_observable(a)
    index = s_obs.index
    v = a.eigenvectors
    factor_projectors = [np.outer(v[:, i], v[:, i].conj()) for i in range(a.dim)]
    h_op = np.zeros((s_obs.dim, s_obs.dim), dtype=np.complex128)
    for s, members in zip(index.sums, index.sets):
        for n, m in members:
            h_op += h(index.factor_eigenvalues[n], s) * tensor_product(factor_projectors[n], factor_projectors[m])
    predicted = float(np.real(phi.expectation(h_op)))
    k = index.sum_index(s_value)
    n = match_value(a.eigenvalues, a1_value, a.grouping_tol)
    return abs(predicted - h(float(a.eigenvalues[n]), index.sums[k]))
