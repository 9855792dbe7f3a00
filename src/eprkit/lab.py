"""Scenario construction, the end-to-end analysis pipeline, and shot sampling.

A scenario bundles one commutation triple [A, B] = i*alpha*C on the factor
space with an initial state of the two-factor composite. The analysis
conditions on every reachable sum outcome, audits the uncertainty bound in
each branch, runs the full measure-S-then-A1 chain, and the sampler draws
reproducible measurement paths to compare empirical frequencies against the
analytic distributions. Each scenario builds one branch table
(``eprkit.conditional.BranchTable``, cached as ``Scenario.branch_table``):
p(s) of every sum line and the kept lines' pairs (n, m) with their weights
in the collapsed branch. The analysis reads p(s), A's distributions, the
Schmidt ranks and every chain off it, as the ``eprkit.conditional`` entry
points do, so the two agree bit for bit, and measures B and C on the stack
of kept N x N branch states with ``eprkit.composite.project_slot``. A
``SumBranchReport`` or ``ChainReport`` is one branch or chain, or, in the
report, every branch or chain at once with a list in each leaf; no record
is built per branch or chain until ``EprReport.per_sum`` or ``chains`` is
read, and ``epr analyze`` and ``epr sample`` write the JSON report from
the two column records (``eprkit.io.run_report``), building no dict per
branch or chain either. The sampler and the comparison walk one list of
the report's chains, built once per scenario (cached as
``Scenario.chain_tables``): the CDFs the kernel draws from and each
chain's p(s) p(a1 | s), off the same table's chain rows, and each chain's
path, off the report's chains. They draw and check only the chains the
report lists, in its order, which ascends in (s, a1), so neither sorts.
No N^2 x N^2 operator is built for the analysis or for sampling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .composite import from_eigenbasis, line_totals, project_slot
from .conditional import POINT_MASS_TOL, BranchTable, PredictionSummary, SumConstraintReport, _branch_table, _require_pinned
from .errors import DimensionMismatchError, NonHermitianError, ScenarioInvariantError
from .linalg import MAX_DIM, Observable, default_grouping_tol, extract_c, match_value
from .states import (
    PROBABILITY_SUM_TOL,
    OutcomeDistribution,
    PureState,
    UncertaintyReport,
    _require_integer,
    spectral_moments,
    uncertainty_satisfied,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Tolerance for the declared C matching [A, B] / (i*alpha), relative to max(1, max |C|).
COMMUTATION_TOL = 1e-8

# Largest supported |entry| of A, B and C. Squares and products of entries
# (commutators, variances) then stay far inside the float range.
MAX_ENTRY_MAGNITUDE = 1e150

MAX_SEED = 2**64 - 1

# Largest shot count of one sample. At some 5 to 10 ns per shot a call of
# this size already runs for hours; a larger count is refused rather than
# left running.
MAX_SHOTS = 2**40


@dataclass(frozen=True)
class Scenario:
    """One commutation triple plus an initial composite state."""

    label: str
    obs_a: Observable
    obs_b: Observable
    obs_c: Observable
    alpha: float
    initial_state: PureState

    # True when C was derived from A and B, so the residual is exactly 0 without a second derivation
    c_derived: InitVar[bool] = False

    def __post_init__(self, c_derived):
        n = self.factor_dim
        if not (self.obs_b.dim == self.obs_c.dim == n):
            raise DimensionMismatchError("B and C must act on A's factor space")
        if n * n > MAX_DIM:
            raise DimensionMismatchError(
                f"factor dim {n} gives composite dim {n * n}, beyond the envelope of {MAX_DIM}"
            )
        if self.initial_state.dim != n * n:
            raise DimensionMismatchError("initial state must live on the composite space")
        _check_envelope(matrix_a=self.obs_a, matrix_b=self.obs_b, matrix_c=self.obs_c)
        if c_derived:
            self.__dict__["commutation_residual"] = 0.0  # seeds the cached_property
        residual = self.commutation_residual
        if not (residual <= COMMUTATION_TOL * max(1.0, float(np.abs(self.obs_c.matrix).max()))):
            raise ValueError(
                f"matrix_c is inconsistent with [A, B]/(i*alpha): residual {residual:.3e}"
            )

    @property
    def factor_dim(self) -> int:
        """N, the dimension of each factor: A's."""
        return self.obs_a.dim

    @cached_property
    def commutation_residual(self) -> float:
        derived = extract_c(self.obs_a, self.obs_b, self.alpha)
        return float(np.abs(derived - self.obs_c.matrix).max())

    @cached_property
    def branch_table(self) -> BranchTable:
        """The branch table of the initial state, built once for the analysis and the sampling tables."""
        return _branch_table(self.initial_state, self.obs_a)

    @cached_property
    def analysis(self) -> "EprReport":
        """``run_epr_analysis`` of this scenario, computed once for the report, sampling and comparison."""
        return run_epr_analysis(self)

    @cached_property
    def chain_tables(self):
        """``_chain_distributions`` of this scenario: its one chain list, built once for sampling and comparison."""
        return _chain_distributions(self)


def _check_envelope(**observables: Observable) -> None:
    """Reject any observable with an entry beyond ``MAX_ENTRY_MAGNITUDE``, naming its field."""
    for name, obs in observables.items():
        largest = float(np.abs(obs.matrix).max())
        if not (largest <= MAX_ENTRY_MAGNITUDE):
            raise ValueError(
                f"{name} has an entry of magnitude {largest:.3e}, beyond the envelope of "
                f"{MAX_ENTRY_MAGNITUDE:.0e}"
            )


def _observable(matrix, field: str) -> Observable:
    """``matrix`` as an Observable, or itself if it is one; NonHermitianError names ``field`` if it is not Hermitian."""
    try:
        return matrix if isinstance(matrix, Observable) else Observable(matrix)
    except NonHermitianError:
        raise NonHermitianError(f"{field} is not Hermitian within tolerance") from None


def build_scenario(label, matrix_a, matrix_b, state, alpha: float = 1.0, matrix_c=None) -> Scenario:
    """Assemble a scenario, deriving C from the commutator when not supplied.

    ``alpha`` defaults to 1, the generic unit convention; the Pauli builder
    uses 2 to match the spin-matrix commutation relations. It must be a
    finite nonzero Python or numpy int or float, not a bool, or ValueError
    names it.
    """
    if isinstance(alpha, np.generic):
        alpha = alpha.item()  # a Python number, which the float range below bounds without a cast
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 < abs(alpha) <= sys.float_info.max:
        raise ValueError(f"alpha must be a finite nonzero real number, got {alpha!r}")
    a = _observable(matrix_a, "matrix_a")
    b = _observable(matrix_b, "matrix_b")
    if matrix_c is None:
        # checked before the commutator, which would overflow beyond the envelope
        _check_envelope(matrix_a=a, matrix_b=b)
        c = Observable(extract_c(a, b, alpha))
        # named as derived: the caller gave no matrix_c
        _check_envelope(**{"C = [A, B]/(i*alpha)": c})
    else:
        c = _observable(matrix_c, "matrix_c")
    psi = state if isinstance(state, PureState) else PureState(state, factor_dims=(a.dim, a.dim))
    return Scenario(
        label=str(label),
        obs_a=a,
        obs_b=b,
        obs_c=c,
        alpha=float(alpha),
        initial_state=psi,
        c_derived=matrix_c is None,
    )


def build_pauli_scenario(amplitudes, label: str = "pauli-pair") -> Scenario:
    """Two spin-1/2 factors with A, B, C the Pauli matrices and alpha = 2.

    The four amplitudes are given in the product basis order
    (up, up), (up, down), (down, up), (down, down), i.e. first factor slow
    with the +1 eigenstate first.
    """
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.size != 4:
        raise DimensionMismatchError(f"need 4 amplitudes for two qubits, got {vec.size}")
    return build_scenario(
        label,
        PAULI_Z,
        PAULI_X,
        PureState(vec, factor_dims=(2, 2)),
        alpha=2.0,
        matrix_c=PAULI_Y,
    )


@dataclass(frozen=True)
class SumBranchReport:
    """Predictions and audits in the post-measurement state of one sum outcome.

    A record is either one branch, with a number in each leaf, or the
    report's branches (``EprReport.branch_columns``), with a list in each
    leaf that holds one entry per branch.
    """

    s_value: float
    probability: float
    schmidt_rank: int
    a1: PredictionSummary
    a2: PredictionSummary
    b1: PredictionSummary
    b2: PredictionSummary
    c1: PredictionSummary
    c2: PredictionSummary
    sum_constraint: SumConstraintReport
    audit_slot1: UncertaintyReport
    audit_slot2: UncertaintyReport


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the full chain: S observed, then A(1) observed.

    A record is either one chain, with a number in each leaf, or the
    report's chains (``EprReport.chain_columns``), with a list in each leaf
    that holds one entry per chain.
    """

    s_value: float
    a1_value: float
    a2_value: float
    conditional_probability: float
    a2_predicted: float
    a2_stdev: float
    point_mass_residual: float
    resolution: UncertaintyReport


def _rows(columns) -> tuple:
    """One record of ``columns``' class per entry of its leaf lists, a nested record's rows in its field."""
    fields = [value if type(value) is list else _rows(value) for value in vars(columns).values()]
    return tuple(type(columns)(*row) for row in zip(*fields))


@dataclass(frozen=True)
class EprReport:
    """Complete analysis of one scenario, its branches and chains each held as one record of lists.

    ``branch_columns`` is a ``SumBranchReport`` and ``chain_columns`` a
    ``ChainReport`` whose every leaf lists one entry per branch or chain, in
    report order. The JSON report is written from them row by row
    (``eprkit.io.run_report``); ``per_sum`` and ``chains`` build the
    one-row records from them on first access.
    """

    scenario_label: str
    sum_spectrum: OutcomeDistribution
    branch_columns: SumBranchReport
    chain_columns: ChainReport

    def __post_init__(self):
        # The uncertainty bound is a theorem; a violated audit is a bug, not a result.
        branches, chains = self.branch_columns, self.chain_columns
        for s_value, slot1, slot2 in zip(branches.s_value, branches.audit_slot1.satisfied, branches.audit_slot2.satisfied):
            if not (slot1 and slot2):
                raise ScenarioInvariantError(f"uncertainty audit failed in branch s={s_value!r}")
        for s_value, a1_value, satisfied in zip(chains.s_value, chains.a1_value, chains.resolution.satisfied):
            if not satisfied:
                raise ScenarioInvariantError(
                    f"uncertainty audit failed after chain (s={s_value!r}, a1={a1_value!r})"
                )

    @cached_property
    def per_sum(self) -> tuple[SumBranchReport, ...]:
        """The branches as one-row ``SumBranchReport`` records, in report order."""
        return _rows(self.branch_columns)

    @cached_property
    def chains(self) -> tuple[ChainReport, ...]:
        """The chains as one-row ``ChainReport`` records, in report order."""
        return _rows(self.chain_columns)

    def branch_for(self, s_value: float) -> SumBranchReport:
        """The branch whose sum value is nearest s_value, within the sum spectrum's grouping tolerance."""
        tol = default_grouping_tol(self.sum_spectrum.values)
        return self.per_sum[match_value(self.branch_columns.s_value, s_value, tol)]

    def chain_for(self, s_value: float, a1_value: float) -> ChainReport:
        """The chain nearest (s_value, a1_value), within ``branch_for``'s tolerance in each."""
        tol = default_grouping_tol(self.sum_spectrum.values)
        chains = self.chain_columns
        return self.chains[match_value(list(zip(chains.s_value, chains.a1_value)), (s_value, a1_value), tol)]


def run_epr_analysis(sc: Scenario) -> EprReport:
    """Condition on every reachable sum outcome and run every reachable chain.

    Outcomes of (numerically) zero probability are omitted rather than
    reported as errors; every retained branch carries its own audits. The
    report's branches and chains are the only paths (s_k, a_n, a_m) that
    ``sample_chain`` and ``compare_empirical`` see. A(1) and A(2)
    distributions are indexed by A's eigenvalue position, never matched by
    value.

    Everything about A is read off the scenario's branch table, built once
    from K = V^H psi conj(V), the state's amplitudes on the product
    eigenstates |a_n>|a_m>: p(s_k), W = |K|^2 added over sum line k, and
    the kept lines' pairs (branch, n, m) with weights W[n, m] / p(s_k). A
    line that merged near-coincident sums and gives a_n two partners raises
    DegenerateSpectrumError first. Otherwise a line holds at most one pair
    per row and column, so branch k is a mixture of its pairs: the A(1) and
    A(2) distributions are their weights scattered into (branches, N)
    tables by n and by m, the Schmidt rank counts the weights above
    ``SCHMIDT_TOL``^2 (|K| above ``SCHMIDT_TOL`` sqrt(p(s_k))), and each
    audit's |<C>| / 2 weighs the diagonal of C' = V^H C V with its slot's
    distribution. The ``eprkit.conditional`` entry points read the same
    table with the same arithmetic, so their answers are the report's bit
    for bit. Only B and C are measured in the standard basis, with
    ``project_slot`` on the kept branch states V (K_k / sqrt(p(s_k))) V^T,
    scattered from the pairs and rotated back by ``from_eigenbasis``; no
    array spans every sum line. Both take row-stacked products, one per
    state or per line, which give each branch the bits of its own
    products. The chains are
    the table's pairs of weight at or above ``ZERO_PROB_THRESHOLD``: the
    weight of the pair (n, m) is p(a_n | s_k), since a_n has one partner on
    the line. The chain S, then A(1) = a_n, leaves
    u |a_n>|a_m> with the unit phase u of K[n, m]: A(2) is the point mass
    |u|^2 at m, B(2) is row m of the overlap table |V_B^H V_A|^2 added over
    B's lines, and the bound's right-hand side is |C'_mm| / 2. No object
    is built per branch or chain: the report holds its branches in one
    ``SumBranchReport`` and its chains in one ``ChainReport``, each leaf the
    list these arrays give. The six (observable, slot) tables of the
    branches, A(1) and A(2) N wide and B's and C's as wide as their line
    counts, are checked and measured with one stacked normalisation check
    and one ``spectral_moments`` call per distinct width
    (``_stacked_moments``), and so are the chains' A(2) and B(2) tables;
    every row keeps the bits it has alone.
    A measurement that does not sum to 1 (for B and C, a branch state off
    the unit norm) or a chain that misses its point mass raises
    ScenarioInvariantError, the first failing table named in the order
    S, A(1), A(2), B(1), B(2), C(1), C(2), then the chains' A(2) and B(2).
    """
    a, b, c = sc.obs_a, sc.obs_b, sc.obs_c
    a.require_nondegenerate()
    n_dim = sc.factor_dim
    table = sc.branch_table
    index, sum_probs, kept, weights = table.index, table.sum_probabilities, table.kept, table.weights
    branch, rows, cols = table.pairs
    a_values = a.eigenvalues
    v = a.eigenvectors
    _require_normalized(sum_probs, "S")
    spectrum = OutcomeDistribution(outcomes=tuple(zip(index.sums, sum_probs.tolist())))

    # before the tables, where a merged line would add a_n's two partners into one cell
    _require_pinned(index, kept.tolist())
    scattered = (np.bincount(branch * n_dim + x, weights, kept.size * n_dim).reshape(-1, n_dim) for x in (rows, cols))
    probabilities = dict(zip([("a", 1), ("a", 2)], scattered))
    # B and C are still measured in the standard basis, on the kept branch states
    branch_coefficients = np.zeros((kept.size, n_dim, n_dim), dtype=complex)
    branch_coefficients[branch, rows, cols] = table.coefficients[rows, cols] / np.sqrt(sum_probs[kept])[branch]
    psi_s = from_eigenbasis(branch_coefficients, a)
    for name, obs in (("b", b), ("c", c)):
        for slot in (1, 2):
            probabilities[name, slot] = project_slot(psi_s, obs, slot)[0]
    factors = {"a": a, "b": b, "c": c}
    moments = dict(zip(probabilities, _stacked_moments([
        (f"{name.upper()}({slot})", factors[name].eigenvalues, probs) for (name, slot), probs in probabilities.items()
    ])))
    summaries = {key: PredictionSummary(mean.tolist(), stdev.tolist()) for key, (mean, stdev) in moments.items()}
    (mean1, stdev1), (mean2, stdev2) = moments["a", 1], moments["a", 2]
    sums = np.asarray(index.sums)
    c_diagonal = np.vecdot(v, c.matrix @ v, axis=0)
    c_max = float(np.abs(c.matrix).max())
    audits = [
        _audit_columns(
            summaries["a", slot].stdev,
            summaries["b", slot].stdev,
            _half_modulus(probabilities["a", slot] @ c_diagonal),
            c_max,
        )
        for slot in (1, 2)
    ]
    branches = SumBranchReport(
        sums[kept].tolist(),
        sum_probs[kept].tolist(),
        table.schmidt_ranks.tolist(),
        *(summaries[name, slot] for name in "abc" for slot in (1, 2)),
        SumConstraintReport(np.abs(mean2 - (sums[kept] - mean1)).tolist(), np.abs(stdev1 - stdev2).tolist()),
        *audits,
    )

    # the table lists each branch's chains in the order of its line's pairs
    chain_branch, ns, ms = table.pairs[:, table.chains]
    amplitudes = table.coefficients[ns, ms]
    a2_probs = _chain_a2_probabilities(amplitudes / np.abs(amplitudes), ms, n_dim)
    overlaps = np.abs(b.eigenvectors.conj().T @ v) ** 2
    b2_probs = line_totals(overlaps.T, b)[ms]
    # A(2)'s one nonzero entry per row is its total, so a row within the sum tolerance holds its point mass
    a2_moments, b2_moments = _stacked_moments(
        [("A(2) after the chain", a_values, a2_probs), ("B(2) after the chain", b.eigenvalues, b2_probs)]
    )
    point_mass = a2_probs[np.arange(len(ms)), ms]
    if not np.all(point_mass >= 1.0 - POINT_MASS_TOL):
        raise ScenarioInvariantError("a state left by the measurement chain misses its A(2) point mass")
    a2_predicted, a2_stdev = (x.tolist() for x in a2_moments)
    b2_stdev = b2_moments[1].tolist()
    chains = ChainReport(
        sums[kept[chain_branch]].tolist(),
        a_values[ns].tolist(),
        a_values[ms].tolist(),
        weights[table.chains].tolist(),
        a2_predicted,
        a2_stdev,
        np.abs(1.0 - point_mass).tolist(),
        _audit_columns(a2_stdev, b2_stdev, _half_modulus(c_diagonal[ms]), c_max),
    )
    return EprReport(scenario_label=sc.label, sum_spectrum=spectrum, branch_columns=branches, chain_columns=chains)


def _audit_columns(delta_a: list[float], delta_b: list[float], rhs: list[float], c_magnitude: float) -> UncertaintyReport:
    """The audit of each entry, as one ``UncertaintyReport`` of lists judged by ``uncertainty_satisfied``."""
    satisfied = uncertainty_satisfied(np.array(delta_a), np.array(delta_b), np.array(rhs), c_magnitude)
    return UncertaintyReport(delta_a, delta_b, rhs, satisfied.tolist())


def _chain_a2_probabilities(units: np.ndarray, ms: np.ndarray, n_dim: int) -> np.ndarray:
    """A(2) probabilities of the chains' states u |a_n>|a_m>: |u|^2 at m, 0 elsewhere, one row per chain."""
    table = np.zeros((len(ms), n_dim))
    table[np.arange(len(ms)), ms] = units.real**2 + units.imag**2
    return table


def _require_normalized(probabilities: np.ndarray, measured: str) -> None:
    """Check that every row of a stacked measurement sums to 1; NaN fails.

    Each row is added in outcome order, as ``OutcomeDistribution`` adds it,
    and held to the same ``PROBABILITY_SUM_TOL``.
    """
    totals = np.cumsum(probabilities, axis=-1)[..., -1]
    failed = ~(np.abs(totals - 1.0) <= PROBABILITY_SUM_TOL)
    if failed.any():
        raise ScenarioInvariantError(f"{measured} probabilities sum to {float(totals[failed][0])!r}, not 1")


def _stacked_moments(tables: list) -> list:
    """``spectral_moments`` of each (measured, eigenvalues, probabilities) table, after ``_require_normalized`` of each.

    The tables have one row count. Those of one width are stacked, and each
    stack takes one normalisation check and one ``spectral_moments`` call;
    ``cumsum`` and ``vecdot`` work along the last axis, row by row, so every
    row keeps the bits it has alone. If a stack fails its check, every
    table is checked on its own in list order, so the first that fails is
    named as ``_require_normalized`` names it; no moment raises.
    """
    widths: dict = {}
    for position, (_, _, probs) in enumerate(tables):
        widths.setdefault(probs.shape[-1], []).append(position)
    moments = [None] * len(tables)
    for members in widths.values():
        probs = np.stack([tables[i][2] for i in members])
        if not np.all(np.abs(np.cumsum(probs, axis=-1)[..., -1] - 1.0) <= PROBABILITY_SUM_TOL):
            for measured, _, table in tables:
                _require_normalized(table, measured)
        means, stdevs = spectral_moments(np.stack([tables[i][1] for i in members])[:, None], probs)
        for i, mean, stdev in zip(members, means, stdevs):
            moments[i] = mean, stdev
    return moments


def _half_modulus(expectations: np.ndarray) -> list[float]:
    """``|<C>| / 2`` of each expectation, with Python's ``abs``: ``np.abs`` of a complex can differ in the last bit."""
    return [0.5 * abs(z) for z in expectations.tolist()]


def path_key(s_value: float, a1_value: float, a2_value: float) -> str:
    """Canonical serialized form of one outcome path."""
    return f"{s_value:.12g},{a1_value:.12g},{a2_value:.12g}"


@dataclass(frozen=True)
class ShotRecord:
    """Tally of sampled measurement paths (s, a1, a2 = s - a1).

    ``seed`` is an integer in [0, ``MAX_SEED``] and ``shots`` one in [1,
    ``MAX_SHOTS``], each path is listed once (as ``path_key`` writes it)
    with a nonnegative integer count, and the counts add up to ``shots``. An
    integer is a Python or numpy integer, never a bool, float or str.
    """

    scenario_label: str
    seed: int
    shots: int
    counts: tuple[tuple[tuple[float, float, float], int], ...]

    def __post_init__(self):
        _require_integer(self.seed, "seed", 0, MAX_SEED)
        _require_integer(self.shots, "shots", 1, MAX_SHOTS)
        for _, count in self.counts:
            _require_integer(count, "count", 0)
        # compare_empirical and the report key each path by its path_key text
        if len({path_key(*path) for path, _ in self.counts}) < len(self.counts):
            raise ValueError("a path is listed more than once")
        total = sum(count for _, count in self.counts)
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")

    @property
    def empirical(self) -> dict[tuple[float, float, float], float]:
        return {path: count / self.shots for path, count in self.counts}


def _chain_distributions(sc: Scenario):
    """The report's chains as one list, read off the branch table the report was built from.

    Returns ``(sum_cdf, cond_cdf, listed, analytic, paths)``. ``sum_cdf``
    adds p(s) over the report's branches. Row i of ``cond_cdf`` adds
    p(a1 | s) over branch i's chains in report order, as wide as the branch
    with the most chains, and is exactly 1.0 from the row's last chain on.
    ``listed`` marks the cells that hold a chain; their row-major order is
    the report's chain order. ``analytic`` is each chain's p(s) p(a1 | s),
    clamped at 1, and ``paths`` its path (s, a1, a2), read off the report's
    ``chain_columns``. The analysis runs first, with every check it makes,
    and the sampler and the comparison see exactly the chains the report
    lists.
    """
    chains = sc.analysis.chain_columns  # sampling meets every check of the analysis first
    table = sc.branch_table
    branch = table.pairs[0, table.chains]
    branch_probs, cond_probs = table.sum_probabilities[table.kept], table.weights[table.chains]
    sum_cdf = np.append(np.cumsum(np.clip(branch_probs, 0.0, 1.0))[:-1], 1.0)
    # the chains come branch by branch: in row-major order, each row's first cells take them
    per_branch = np.bincount(branch, minlength=table.kept.size)[:, None]
    column = np.arange(per_branch.max())
    listed = column < per_branch
    cond_cdf = np.zeros(listed.shape)
    cond_cdf[listed] = np.clip(cond_probs, 0.0, 1.0)
    cond_cdf = np.where(column < per_branch - 1, np.cumsum(cond_cdf, axis=1), 1.0)
    # p(s) p(a1 | s) can round above 1, where p (1 - p) would have no square root
    analytic = tuple(np.minimum(branch_probs[branch] * cond_probs, 1.0).tolist())
    paths = tuple(zip(chains.s_value, chains.a1_value, chains.a2_value))
    return sum_cdf, cond_cdf, listed, analytic, paths


def sample_chain(sc: Scenario, shots: int, seed: int = 0) -> ShotRecord:
    """Sample ``shots`` full measurement chains, reproducibly in the seed.

    Each shot draws a branch of the report from p(s), then one of its
    chains from p(a1 | s), and records the chain's path (s, a1, a2). Each
    CDF ends at exactly 1.0 on its last listed entry, so every draw lands
    on a chain the report lists; the drawn paths come in the report's
    chain order, which is ascending. The stream is counter-based, so
    identical (scenario, shots, seed) yields identical counts regardless of
    backend or evaluation order.
    """
    shots, seed = _require_integer(shots, "shots", 1, MAX_SHOTS), _require_integer(seed, "seed", 0, MAX_SEED)
    sum_cdf, cond_cdf, listed, _, paths = sc.chain_tables
    counts = _kernels.sample_counts(seed, shots, sum_cdf, cond_cdf)[listed].tolist()
    drawn = tuple((path, count) for path, count in zip(paths, counts) if count)
    return ShotRecord(scenario_label=sc.label, seed=seed, shots=shots, counts=drawn)


@dataclass(frozen=True)
class PathComparison:
    path: tuple[float, float, float]
    analytic: float
    empirical: float
    deviation: float
    bound: float


@dataclass(frozen=True)
class EmpiricalComparison:
    """Per-path deviations of a shot record from the analytic chain distribution."""

    max_abs_deviation: float
    within_3sigma: bool
    paths: tuple[PathComparison, ...] = field(repr=False)


def compare_empirical(record: ShotRecord, sc: Scenario) -> EmpiricalComparison:
    """Check every sampled path against its analytic probability and 3-sigma band.

    The analytic paths are the report's chains, each with p(s) p(a1 | s)
    off the sampling tables, clamped at 1.
    """
    if record.scenario_label != sc.label:
        raise ValueError(
            f"record was sampled from {record.scenario_label!r}, not {sc.label!r}"
        )
    _, _, _, analytic, paths = sc.chain_tables
    keys = [path_key(*path) for path in paths]
    empirical = {path_key(*path): freq for path, freq in record.empirical.items()}
    unknown = set(empirical) - set(keys)
    if unknown:
        raise ValueError(f"record contains paths impossible under the scenario: {sorted(unknown)}")

    rows = []
    for key, path, p in zip(keys, paths, analytic):
        freq = empirical.get(key, 0.0)
        deviation = abs(freq - p)
        bound = 3.0 * math.sqrt(p * (1.0 - p) / record.shots)
        rows.append(PathComparison(path=path, analytic=p, empirical=freq, deviation=deviation, bound=bound))
    max_dev = max((row.deviation for row in rows), default=0.0)
    within = all(row.deviation <= row.bound for row in rows)
    return EmpiricalComparison(max_abs_deviation=max_dev, within_3sigma=within, paths=tuple(rows))
