"""Conditioning on an observed value of the conserved sum.

Once S = A(1) + A(2) has been measured, predictions about either factor are
made in the collapsed state, and they coincide with classically conditioning
the joint outcome distribution on the observed sum. Every sum-conditioned
entry point reads that distribution off the N x N joint table W = |K|^2,
K = V^H psi conj(V): the probability of each product eigenstate |a_n>|a_m>.
Sum line k keeps orthogonal pairs (n, m), so its branch is a mixture of
them: p(s_k) adds W over the line, and the A(1) and A(2) distributions in
the branch are its row and column sums over p(s_k). ``lab.run_epr_analysis``
reads the same table (``_joint_table``) with the same arithmetic, so every
A-side answer here equals the report's bit for bit. ``certain_prediction``
and ``epr_resolution_check`` measure slot 2 of the caller's post-chain
state psi: each line's probability adds the squared column norms of
psi conj(V) over its eigenvectors, and <C(2)> is ``slot_expectation``. None
builds an N^2 x N^2 operator or a stack of projected states.
``oracle_conditional`` conditions the same table by brute force. The
functions f, g and H are ``states.SpectrumFunction`` tables;
``PairSpectrumFunction`` is one over the (a, s) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import (
    ZERO_PROB_THRESHOLD,
    AntiDiagonalIndex,
    anti_diagonal_index,
    coefficient_matrix,
    eigenbasis_coefficients,
    line_totals,
    require_possible,
    slot_expectation,
)
from .errors import DegenerateSpectrumError, DimensionMismatchError, SpectrumCoverageError
from .linalg import Observable, default_grouping_tol, group_close_values, match_value
from .states import OutcomeDistribution, PureState, SpectrumFunction, UncertaintyReport, uncertainty_report

# Slack below 1 allowed for the point mass of A(2) after the full chain.
POINT_MASS_TOL = 1e-10


@dataclass(frozen=True)
class ConditionalDistribution(OutcomeDistribution):
    """Distribution of first-factor outcomes given an observed sum.

    The outcomes are exactly the first-factor eigenvalues compatible with
    ``given_sum``.
    """

    given_sum: float

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.given_sum):
            raise ValueError(f"given sum {self.given_sum!r} is not finite")


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


class PairSpectrumFunction:
    """A real function of (first-factor outcome, sum outcome) pairs as a table.

    The table is a ``SpectrumFunction`` over the (a, s) pairs: a lookup
    returns the nearest pair's value, within 1e-9 times the largest |a| or
    |s| in the table, as ``EprReport.chain_for`` finds the nearest chain.
    """

    def __init__(self, entries: dict[tuple[float, float], float]):
        self._table = SpectrumFunction(entries)

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
        return self._table((a_value, s_value))


def _joint_table(state: PureState, a: Observable) -> tuple[AntiDiagonalIndex, np.ndarray, np.ndarray, np.ndarray]:
    """A's sum index, K = V^H psi conj(V), W, the probability of each pair (n, m) of A's lines, and p(s_k).

    W[n, m] adds |K|^2 over the contiguous eigenvectors of lines n and m, so
    it is |P_n psi P_m^T|^2 also for a degenerate A. p(s_k) adds W over sum
    line k's pairs in order of n, clamped to [0, 1]: the package's one sum
    probability, which the analysis reads too.
    """
    index = anti_diagonal_index(a)
    coefficients = eigenbasis_coefficients(coefficient_matrix(state, a.dim), a)
    w = line_totals(line_totals(coefficients.real**2 + coefficients.imag**2, a, axis=0), a, axis=1)
    sum_probabilities = np.bincount(index.labels.ravel(), weights=w.ravel(), minlength=len(index.sums))
    return index, coefficients, w, np.clip(sum_probabilities, 0.0, 1.0)


def _slot2_probabilities(psi: np.ndarray, obs: Observable) -> np.ndarray:
    """Outcome probabilities of obs on slot 2 of the coefficient matrix psi, in the order of its lines.

    Line l's probability |psi P_l^T|^2 adds the squared norms of the columns
    psi conj(v_j) over its eigenvectors v_j.
    """
    columns = psi @ obs.eigenvectors.conj()
    return line_totals(np.sum(columns.real**2 + columns.imag**2, axis=0), obs)


def _branch(state: PureState, a: Observable, s_value: float) -> tuple[AntiDiagonalIndex, int, np.ndarray, np.ndarray]:
    """A's sum index, the line k matching s_value, K, and the joint table of the state collapsed on line k.

    The collapsed table is W on line k's pairs over p(s_k), 0 off the line,
    the analysis's branch weights bit for bit.
    """
    a.require_nondegenerate()
    index, coefficients, w, sum_probabilities = _joint_table(state, a)
    k = index.sum_index(s_value)
    return index, k, coefficients, np.where(index.labels == k, w, 0.0) / require_possible(float(sum_probabilities[k]))


def _distribution(obs: Observable, probabilities: np.ndarray) -> OutcomeDistribution:
    """The outcome distribution of a factor observable from its probabilities, in the order of its lines."""
    return OutcomeDistribution(tuple(zip(obs.eigenvalues.tolist(), probabilities.tolist())))


def conditional_distribution(state: PureState, a: Observable, s_value: float) -> ConditionalDistribution:
    """First-factor outcome probabilities given that the sum was observed as s_value.

    The outcomes are exactly the first-factor eigenvalues compatible with
    the observed sum.
    """
    index, k, _, branch = _branch(state, a, s_value)
    _require_pinned(index, [k])
    a1_probabilities = branch.sum(axis=1).tolist()
    outcomes = tuple((index.factor_eigenvalues[n], a1_probabilities[n]) for n, _ in index.sets[k])
    return ConditionalDistribution(outcomes=outcomes, given_sum=index.sums[k])


def _require_pinned(index: AntiDiagonalIndex, lines) -> None:
    """DegenerateSpectrumError naming the first of the given sum lines that lists two pairs (n, m) with one n.

    A sum line that merged near-coincident sums can do that, and observing
    a_n there pins no A(2) outcome.
    """
    for k in lines:
        pairs = index.sets[k]
        if len({n for n, _ in pairs}) < len(pairs):
            raise DegenerateSpectrumError(f"A is too close to degenerate: sum {index.sums[k]!r} pins no A(2) outcome")


def conditional_prediction(state: PureState, a: Observable, f: SpectrumFunction, s_value: float) -> PredictionSummary:
    """Mean and error of f(A(1)) predicted after the sum was observed as s_value."""
    fvals = [f(v) for v in a.eigenvalues]
    _, _, _, branch = _branch(state, a, s_value)
    mean, stdev = _distribution(a, branch.sum(axis=1)).moments(fvals)
    return PredictionSummary(mean=mean, stdev=stdev)


def verify_theorem2(state: PureState, a: Observable, s_value: float) -> SumConstraintReport:
    """Residuals of the post-measurement identities m(A2) = s - m(A1), D(A1) = D(A2)."""
    index, k, _, branch = _branch(state, a, s_value)
    mean1, stdev1 = _distribution(a, branch.sum(axis=1)).moments()
    mean2, stdev2 = _distribution(a, branch.sum(axis=0)).moments()
    return SumConstraintReport(
        mean_identity_residual=abs(mean2 - (index.sums[k] - mean1)),
        stdev_gap=abs(stdev1 - stdev2),
    )


def sequential_measure(state: PureState, a: Observable, s_value: float, a1_value: float) -> PureState:
    """Collapse on S = s_value, then on A(1) = a1_value.

    The result is the product basis state |a1, s - a1> up to a global phase:
    the unit phase of K[n, m] times |a_n>|a_m>. Either stage raises
    ImpossibleOutcomeError when its outcome has (numerically) zero
    probability in the current state.
    """
    index, k, coefficients, branch = _branch(state, a, s_value)
    n = a.line_index(a1_value)
    require_possible(float(branch[n].sum()))
    # a line that merged near-coincident sums can give a_n several partners, kept in proportion
    partners = [m for row, m in index.sets[k] if row == n]
    row = coefficients[n, partners]
    v = a.eigenvectors
    return PureState(np.kron(v[:, n], v[:, partners] @ (row / np.abs(row).max())), factor_dims=state.factor_dims)


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
    gvals = [g(v) for v in a.eigenvalues]
    index = anti_diagonal_index(a)
    k = index.sum_index(s_value)
    n = a.line_index(a1_value)
    partners = [m for row, m in index.sets[k] if row == n]
    if len(partners) != 1:
        raise SpectrumCoverageError(f"a1 = {a1_value!r} pins no single A(2) outcome on sum {index.sums[k]!r}")
    probabilities = _slot2_probabilities(coefficient_matrix(phi, a.dim), a)
    if not (probabilities[partners[0]] >= 1.0 - POINT_MASS_TOL):
        raise ValueError("state was not produced by the measurement chain for (s_value, a1_value)")
    a2_dist = _distribution(a, probabilities)
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
    psi = coefficient_matrix(phi, a.dim)
    return uncertainty_report(
        _distribution(a, _slot2_probabilities(psi, a)).moments()[1],
        _distribution(b, _slot2_probabilities(psi, b)).moments()[1],
        0.5 * abs(complex(slot_expectation(psi, c, 2))),
    )


def quantum_conditional_expectation(state: PureState, a: Observable, f: SpectrumFunction) -> ConditionalExpectationTable:
    """The function e on the sum spectrum with E[e(S) G(S)] = E[f(A1) G(S)] for all G.

    e(s_k) = <psi_k| f(A1) |psi_k> in each collapsed branch of positive
    probability, read off the joint table W; a degenerate A is fine.
    """
    fvals = [f(v) for v in a.eigenvalues]
    return _expectation_table(_joint_table(state, a), fvals)[0]


def _expectation_table(table, fvals) -> tuple[ConditionalExpectationTable, np.ndarray]:
    """``quantum_conditional_expectation`` from ``_joint_table`` and f's values on A's lines, and the probabilities of its sums.

    e(s_k) adds f(a_n) (W[n, m] / p(s_k)) over line k's pairs one term at a
    time, in order of n, as ``spectral_moments`` adds the mean of the
    branch's A(1) distribution: e(s_k) of the identity is the report's
    ``a1.mean`` bit for bit.
    """
    index, _, w, sum_probabilities = table
    labels = index.labels
    possible = sum_probabilities >= ZERO_PROB_THRESHOLD
    weights = np.divide(w, sum_probabilities[labels], out=np.zeros_like(w), where=possible[labels])
    e = np.zeros(len(index.sums))
    # np.add.at is unbuffered: each line's terms are added one by one, in the flat order of its pairs
    np.add.at(e, labels.ravel(), (np.asarray(fvals)[:, None] * weights).ravel())
    kept = np.flatnonzero(possible)
    entries = tuple(zip([index.sums[k] for k in kept.tolist()], e[kept].tolist()))
    return ConditionalExpectationTable(entries=entries, match_tol=index.match_tol), sum_probabilities[kept]


def oracle_conditional(state: PureState, a: Observable, f: SpectrumFunction) -> ConditionalExpectationTable:
    """Brute-force classical conditioning, pair by pair, of the joint table the entry points read.

    Extracts the joint coefficients directly, enumerates all N^2 outcome
    pairs, groups their sums, and conditions the resulting classical table.
    No projector machinery is involved; it shares K = V^H psi conj(V) with
    the entry points, so the dense projector route is their independent
    reference.
    """
    a.require_nondegenerate()
    n_dim = a.dim
    v = a.eigenvectors
    coeff = v.conj().T @ coefficient_matrix(state, n_dim) @ v.conj()
    q = np.abs(coeff) ** 2
    values = a.eigenvalues

    pair_sums = np.array([values[i] + values[j] for i in range(n_dim) for j in range(n_dim)])
    pair_index = [(i, j) for i in range(n_dim) for j in range(n_dim)]
    order = np.argsort(pair_sums, kind="stable")
    tol = default_grouping_tol(pair_sums)
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
    weights W, with no conditioning involved.
    """
    index = anti_diagonal_index(a)
    # G is read at each line's grouped sum, not the raw a_n + a_m,
    # so merged near-coincident sums cannot drift outside G's match tolerance
    gvals = {s: g(s) for s in index.sums}
    fvals = [f(v) for v in a.eigenvalues]
    joint = _joint_table(state, a)
    a.require_nondegenerate()
    table, probabilities = _expectation_table(joint, fvals)
    w = joint[2]
    lhs = sum(gvals[s] * e * p for (s, e), p in zip(table.entries, probabilities.tolist()))
    rhs = sum(gvals[s] * sum(fvals[n] * w[n, m] for n, m in members) for s, members in zip(index.sums, index.sets))
    return abs(lhs - float(rhs))


def verify_ce2(
    state: PureState,
    a: Observable,
    h: PairSpectrumFunction,
    s_value: float,
    a1_value: float,
) -> float:
    """Residual of the pinning identity: conditioning H(A1, S) on observed (a1, s) yields H(a1, s).

    The post-chain joint table is row n of the collapsed table, renormalized:
    a1's pairs (n, m) on sum line k, each a joint eigenstate of A1 and S
    with value H(a_n, s_k).
    """
    index, k, _, branch = _branch(state, a, s_value)
    n = a.line_index(a1_value)
    chain = branch[n] / require_possible(float(branch[n].sum()))
    pinned = h(index.factor_eigenvalues[n], index.sums[k])
    return abs(sum(pinned * p for p in chain.tolist()) - pinned)
