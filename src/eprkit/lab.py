"""Scenario construction, the end-to-end analysis pipeline, and shot sampling.

A scenario bundles one commutation triple [A, B] = i*alpha*C on the factor
space with an initial state of the two-factor composite. The analysis
conditions on every reachable sum outcome, audits the uncertainty bound in
each branch, runs the full measure-S-then-A1 chain, and the sampler draws
reproducible measurement paths to compare empirical frequencies against the
analytic distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .composite import ZERO_PROB_THRESHOLD, collapse, lift, schmidt_rank, sum_observable
from .conditional import (
    ConditionalDistribution,
    PredictionSummary,
    SumConstraintReport,
    certain_prediction_from,
    conditional_distribution_from,
    verify_theorem2_from,
)
from .errors import DimensionMismatchError, ImpossibleOutcomeError, ScenarioInvariantError
from .linalg import MAX_DIM, Observable, default_grouping_tol, extract_c
from .states import (
    OutcomeDistribution,
    PureState,
    UncertaintyReport,
    audit_uncertainty_from,
    outcome_probabilities,
    prediction_error,
    project_outcomes,
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


@dataclass(frozen=True)
class Scenario:
    """One commutation triple plus an initial composite state."""

    label: str
    factor_dim: int
    obs_a: Observable
    obs_b: Observable
    obs_c: Observable
    alpha: float
    initial_state: PureState

    def __post_init__(self):
        n = self.factor_dim
        if not (self.obs_a.dim == self.obs_b.dim == self.obs_c.dim == n):
            raise DimensionMismatchError("A, B, C must all act on the factor space")
        if n * n > MAX_DIM:
            raise DimensionMismatchError(
                f"factor dim {n} gives composite dim {n * n}, beyond the envelope of {MAX_DIM}"
            )
        if self.initial_state.dim != n * n:
            raise DimensionMismatchError("initial state must live on the composite space")
        _check_envelope(matrix_a=self.obs_a, matrix_b=self.obs_b, matrix_c=self.obs_c)
        residual = self.commutation_residual
        if not (residual <= COMMUTATION_TOL * max(1.0, float(np.abs(self.obs_c.matrix).max()))):
            raise ValueError(
                f"matrix_c is inconsistent with [A, B]/(i*alpha): residual {residual:.3e}"
            )

    @cached_property
    def commutation_residual(self) -> float:
        derived = extract_c(self.obs_a.matrix, self.obs_b.matrix, self.alpha)
        return float(np.abs(derived - self.obs_c.matrix).max())

    @cached_property
    def analysis(self) -> "EprReport":
        """``run_epr_analysis`` of this scenario, computed once for the report, sampling and comparison."""
        return run_epr_analysis(self)

    @cached_property
    def chain_tables(self):
        """``_chain_distributions`` of this scenario, computed once for sampling and comparison."""
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


def build_scenario(label, matrix_a, matrix_b, state, alpha: float = 1.0, matrix_c=None) -> Scenario:
    """Assemble a scenario, deriving C from the commutator when not supplied.

    ``alpha`` defaults to 1, the generic unit convention; the Pauli builder
    uses 2 to match the spin-matrix commutation relations.
    """
    a = matrix_a if isinstance(matrix_a, Observable) else Observable(matrix_a)
    b = matrix_b if isinstance(matrix_b, Observable) else Observable(matrix_b)
    if matrix_c is None:
        # checked before the commutator, which would overflow beyond the envelope
        _check_envelope(matrix_a=a, matrix_b=b)
        c = Observable(extract_c(a.matrix, b.matrix, alpha))
    else:
        c = matrix_c if isinstance(matrix_c, Observable) else Observable(matrix_c)
    psi = state if isinstance(state, PureState) else PureState(state, factor_dims=(a.dim, a.dim))
    return Scenario(
        label=str(label),
        factor_dim=a.dim,
        obs_a=a,
        obs_b=b,
        obs_c=c,
        alpha=float(alpha),
        initial_state=psi,
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
    """Predictions and audits in the post-measurement state of one sum outcome."""

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
    # Not serialized: the sum line's index and its full A(1) distribution,
    # below-threshold entries included, for the sampling tables.
    sum_index: int = field(repr=False)
    conditional: ConditionalDistribution = field(repr=False)


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the full chain: S observed, then A(1) observed."""

    s_value: float
    a1_value: float
    a2_value: float
    conditional_probability: float
    a2_predicted: float
    a2_stdev: float
    point_mass_residual: float
    resolution: UncertaintyReport


@dataclass(frozen=True)
class EprReport:
    """Complete analysis of one scenario."""

    scenario_label: str
    sum_spectrum: OutcomeDistribution
    per_sum: tuple[SumBranchReport, ...]
    chains: tuple[ChainReport, ...]

    def __post_init__(self):
        # The uncertainty bound is a theorem; a violated audit is a bug, not a result.
        for branch in self.per_sum:
            if not (branch.audit_slot1.satisfied and branch.audit_slot2.satisfied):
                raise ScenarioInvariantError(f"uncertainty audit failed in branch s={branch.s_value!r}")
        for chain in self.chains:
            if not chain.resolution.satisfied:
                raise ScenarioInvariantError(
                    f"uncertainty audit failed after chain (s={chain.s_value!r}, a1={chain.a1_value!r})"
                )

    def branch_for(self, s_value: float, tol: float | None = None) -> SumBranchReport:
        """The branch whose sum value is nearest s_value, within tol (default: the sum spectrum's grouping tolerance)."""
        tol = default_grouping_tol(self.sum_spectrum.values) if tol is None else tol
        branch = min(self.per_sum, key=lambda b: abs(b.s_value - s_value), default=None)
        if branch is None or not (abs(branch.s_value - s_value) <= tol):
            raise KeyError(f"no populated branch for s={s_value!r}")
        return branch

    def chain_for(self, s_value: float, a1_value: float, tol: float | None = None) -> ChainReport:
        """The chain nearest (s_value, a1_value), within tol in each (default: as ``branch_for``)."""
        tol = default_grouping_tol(self.sum_spectrum.values) if tol is None else tol
        distance = lambda c: max(abs(c.s_value - s_value), abs(c.a1_value - a1_value))  # noqa: E731
        chain = min(self.chains, key=distance, default=None)
        if chain is None or not (distance(chain) <= tol):
            raise KeyError(f"no chain entry for (s={s_value!r}, a1={a1_value!r})")
        return chain


def run_epr_analysis(sc: Scenario) -> EprReport:
    """Condition on every reachable sum outcome and run every reachable chain.

    Outcomes of (numerically) zero probability are omitted rather than
    reported as errors; every retained branch carries its own audits. This is
    the one walk over the paths (s_k, a_n, a_m): each branch is collapsed once
    and its pairs (n, m) are read off the sum index, so A(1) and A(2)
    distributions are indexed by A's eigenvalue position, never matched by
    value. Each outcome distribution in a collapsed state is computed once and
    shared by the summaries, audits and chains. Branches and chains collapse
    from the vectors the sum and A(1) distributions projected.
    """
    a, b, c = sc.obs_a, sc.obs_b, sc.obs_c
    a.require_nondegenerate()
    state = sc.initial_state
    s_obs = sum_observable(a)
    index = s_obs.index
    spectrum, branch_vectors = project_outcomes(state, s_obs)
    # lifted lines follow the factor's lines, so A(1) and A(2) outcomes are indexed like A's
    lifted = {(name, slot): lift(obs, slot) for name, obs in (("a", a), ("b", b), ("c", c)) for slot in (1, 2)}
    a_values = a.eigenvalues

    branches = []
    chains = []
    for k, (s_value, prob) in enumerate(spectrum.outcomes):
        if prob < ZERO_PROB_THRESHOLD:
            continue
        psi_s = collapse(state, branch_vectors[k], prob)
        measured = {key: project_outcomes(psi_s, obs) for key, obs in lifted.items()}
        dists = {key: dist for key, (dist, _) in measured.items()}
        chain_vectors = measured[("a", 1)][1]
        summaries = {
            key: PredictionSummary(mean=dist.mean_of(dist.values), stdev=dist.moments()[1])
            for key, dist in dists.items()
        }
        audits = {
            slot: audit_uncertainty_from(
                psi_s, summaries[("a", slot)].stdev, summaries[("b", slot)].stdev, lifted[("c", slot)]
            )
            for slot in (1, 2)
        }
        cond = conditional_distribution_from(dists[("a", 1)], index, k)
        branches.append(
            SumBranchReport(
                s_value=s_value,
                probability=prob,
                schmidt_rank=schmidt_rank(psi_s),
                a1=summaries[("a", 1)],
                a2=summaries[("a", 2)],
                b1=summaries[("b", 1)],
                b2=summaries[("b", 2)],
                c1=summaries[("c", 1)],
                c2=summaries[("c", 2)],
                sum_constraint=verify_theorem2_from(dists[("a", 1)], dists[("a", 2)], a, s_value),
                audit_slot1=audits[1],
                audit_slot2=audits[2],
                sum_index=k,
                conditional=cond,
            )
        )

        for (n, m), (a1_value, cond_prob) in zip(index.sets[k], cond.support):
            if cond_prob < ZERO_PROB_THRESHOLD:
                continue
            phi = collapse(psi_s, chain_vectors[n], cond_prob)
            a2_dist = outcome_probabilities(phi, lifted[("a", 2)])
            prediction = certain_prediction_from(a2_dist, m, a_values)
            a2_value = float(a_values[m])
            chains.append(
                ChainReport(
                    s_value=s_value,
                    a1_value=a1_value,
                    a2_value=a2_value,
                    conditional_probability=cond_prob,
                    a2_predicted=prediction.value,
                    a2_stdev=prediction.stdev,
                    point_mass_residual=abs(1.0 - a2_dist.outcomes[m][1]),
                    resolution=audit_uncertainty_from(
                        phi, a2_dist.moments()[1], prediction_error(phi, lifted[("b", 2)]), lifted[("c", 2)]
                    ),
                )
            )

    return EprReport(
        scenario_label=sc.label,
        sum_spectrum=spectrum,
        per_sum=tuple(branches),
        chains=tuple(chains),
    )


def path_key(s_value: float, a1_value: float, a2_value: float) -> str:
    """Canonical serialized form of one outcome path."""
    return f"{s_value:.12g},{a1_value:.12g},{a2_value:.12g}"


@dataclass(frozen=True)
class ShotRecord:
    """Tally of sampled measurement paths (s, a1, a2 = s - a1)."""

    scenario_label: str
    seed: int
    shots: int
    counts: tuple[tuple[tuple[float, float, float], int], ...]

    def __post_init__(self):
        total = sum(count for _, count in self.counts)
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")

    @property
    def empirical(self) -> dict[tuple[float, float, float], float]:
        return {path: count / self.shots for path, count in self.counts}

    @property
    def counts_dict(self) -> dict[tuple[float, float, float], int]:
        return dict(self.counts)


def _chain_distributions(sc: Scenario):
    """Sum distribution, conditional table and outcome paths for sampling, read off the analysis.

    ``cond_probs[k, n]`` is p(a_n | s_k), and ``paths[k, n]`` is the path
    (s_k, a_n, a_m) of the pair (n, m) on sum line k, for every support entry
    of every populated line.
    """
    report = sc.analysis
    index = sum_observable(sc.obs_a).index
    a_values = sc.obs_a.eigenvalues
    cond_probs = np.zeros((len(report.sum_spectrum.outcomes), sc.factor_dim))
    paths = {}
    for branch in report.per_sum:
        k = branch.sum_index
        for (n, m), (a1_value, p) in zip(index.sets[k], branch.conditional.support):
            cond_probs[k, n] = p
            paths[k, n] = (branch.s_value, a1_value, float(a_values[m]))
    return report.sum_spectrum, cond_probs, paths


def sample_chain(sc: Scenario, shots: int, seed: int = 0) -> ShotRecord:
    """Sample ``shots`` full measurement chains, reproducibly in the seed.

    Each shot draws a sum outcome from the analytic distribution, collapses,
    draws the first-factor outcome from the conditional distribution, and
    records the implied second-factor value. The stream is counter-based, so
    identical (scenario, shots, seed) yields identical counts regardless of
    backend or evaluation order.
    """
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    if not 0 <= int(seed) <= MAX_SEED:
        raise ValueError("seed must fit in 64 bits")

    spectrum, cond_probs, paths = sc.chain_tables

    sum_cdf = np.cumsum(np.clip(spectrum.probabilities, 0.0, 1.0))
    sum_cdf[-1] = 1.0
    cond_cdf = np.ones(cond_probs.shape)
    for k in {k for k, _ in paths}:
        cond_cdf[k] = np.cumsum(np.clip(cond_probs[k], 0.0, 1.0))
        cond_cdf[k, -1] = 1.0

    counts_matrix = _kernels.sample_counts(int(seed), int(shots), sum_cdf, cond_cdf)

    counts = []
    for k, n in zip(*np.nonzero(counts_matrix)):
        path = paths.get((int(k), int(n)))
        if path is None:
            raise ImpossibleOutcomeError(f"sampled first-factor outcome {n} lies on no populated sum line {k}")
        counts.append((path, int(counts_matrix[k, n])))
    counts.sort(key=lambda item: item[0])
    return ShotRecord(scenario_label=sc.label, seed=int(seed), shots=int(shots), counts=tuple(counts))


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
    """Check every sampled path against its analytic probability and 3-sigma band."""
    if record.scenario_label != sc.label:
        raise ValueError(
            f"record was sampled from {record.scenario_label!r}, not {sc.label!r}"
        )
    spectrum, cond_probs, paths = sc.chain_tables
    analytic: dict[str, tuple[tuple[float, float, float], float]] = {}
    for (k, n), path in paths.items():
        if cond_probs[k, n] > 0.0:
            analytic[path_key(*path)] = (path, spectrum.outcomes[k][1] * cond_probs[k, n])

    empirical = {path_key(*path): freq for path, freq in record.empirical.items()}
    unknown = set(empirical) - set(analytic)
    if unknown:
        raise ValueError(f"record contains paths impossible under the scenario: {sorted(unknown)}")

    rows = []
    for key, (path, p) in sorted(analytic.items(), key=lambda item: item[1][0]):
        freq = empirical.get(key, 0.0)
        deviation = abs(freq - p)
        bound = 3.0 * math.sqrt(p * (1.0 - p) / record.shots)
        rows.append(PathComparison(path=path, analytic=p, empirical=freq, deviation=deviation, bound=bound))
    max_dev = max((row.deviation for row in rows), default=0.0)
    within = all(row.deviation <= row.bound for row in rows)
    return EmpiricalComparison(max_abs_deviation=max_dev, within_3sigma=within, paths=tuple(rows))
