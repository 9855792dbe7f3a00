"""Shared fixtures-in-spirit: random generators and independent brute-force oracles.

The oracles here deliberately avoid the package's grouping and projector
machinery (fresh eigh calls, rounding-based grouping, direct coefficient
loops) so that agreement between the two is a real cross-check.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def function_matrix(obs, f) -> np.ndarray:
    """The matrix ``f(A) = sum_k f(a_k) P_k`` from the observable's lines, for checks against a quadratic form."""
    out = np.zeros((obs.dim, obs.dim), dtype=np.complex128)
    for eigenvalue, projector in zip(obs.eigenvalues.tolist(), obs.projectors):
        out += f(eigenvalue) * projector
    return out


def brute_outcome_probs(psi: np.ndarray, matrix: np.ndarray, decimals: int = 9) -> dict[float, float]:
    """Outcome distribution via a fresh eigh and rounding-based grouping."""
    w, v = np.linalg.eigh(matrix)
    amps = v.conj().T @ psi
    table: dict[float, float] = {}
    for val, amp in zip(w, amps):
        key = round(float(val), decimals)
        table[key] = table.get(key, 0.0) + float(abs(amp) ** 2)
    return dict(sorted(table.items()))


def brute_joint_probs(psi: np.ndarray, factor_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, q) for a two-factor state, by an explicit double loop."""
    w, v = np.linalg.eigh(factor_matrix)
    n = w.size
    q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            basis = np.kron(v[:, i], v[:, j])
            q[i, j] = abs(np.vdot(basis, psi)) ** 2
    return w, q


def brute_sum_distribution(psi: np.ndarray, factor_matrix: np.ndarray, decimals: int = 9) -> dict[float, float]:
    """Distribution of a_i + a_j by enumerating the joint table."""
    w, q = brute_joint_probs(psi, factor_matrix)
    out: dict[float, float] = {}
    for i in range(w.size):
        for j in range(w.size):
            key = round(float(w[i] + w[j]), decimals)
            out[key] = out.get(key, 0.0) + q[i, j]
    return dict(sorted(out.items()))


def brute_conditional_mean(psi: np.ndarray, factor_matrix: np.ndarray, f, s_value: float, decimals: int = 9) -> float:
    """Classical conditioning of the brute-force joint table."""
    w, q = brute_joint_probs(psi, factor_matrix)
    num = 0.0
    den = 0.0
    target = round(float(s_value), decimals)
    for i in range(w.size):
        for j in range(w.size):
            if round(float(w[i] + w[j]), decimals) == target:
                num += f(w[i]) * q[i, j]
                den += q[i, j]
    if den == 0.0:
        raise ZeroDivisionError("conditioning on a zero-probability sum")
    return num / den


def reference_sample_counts(seed: int, shots: int, sum_cdf: np.ndarray, cond_cdf: np.ndarray) -> np.ndarray:
    """The sampling kernel's selection done on floats, in one unchunked pass.

    Draws the same uniforms as ``eprkit._kernels.sample_counts``, picks the
    sum outcome by ``searchsorted`` on the float cdf and the first-factor
    outcome as the first column of the selected row whose cdf exceeds the
    uniform, through a (shots x N) gather and ``argmax``.
    """
    from eprkit._kernels import uniforms

    sum_cdf = np.asarray(sum_cdf, dtype=np.float64)
    cond_cdf = np.asarray(cond_cdf, dtype=np.float64)
    d, n_out = cond_cdf.shape
    u = uniforms(seed, 2 * shots)
    s_idx = np.minimum(np.searchsorted(sum_cdf, u[0::2], side="right"), d - 1)
    a_idx = (u[1::2, None] < cond_cdf[s_idx]).argmax(axis=1)
    return np.bincount(s_idx * n_out + a_idx, minlength=d * n_out).reshape(d, n_out)


def project_sum(psi: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """Measure S = A(1) + A(2) on each coefficient matrix in the (..., N, N) stack psi, by projection.

    Line k projects psi to the sum of P_n psi P_m^T over its pairs (n, m).
    Returns the (..., lines) probabilities, in the order of the sum index,
    and the (..., lines, N, N) projected matrices. The terms of all N^2
    pairs come from two batched products; each line adds up its own pairs in
    index order. This is the measurement the analysis made before it read
    the joint table |K|^2.
    """
    from eprkit.composite import anti_diagonal_index
    from eprkit.states import projected_probabilities

    index = anti_diagonal_index(a)
    stack = a.projectors
    terms = (stack @ psi[..., None, :, :])[..., :, None, :, :] @ stack.transpose(0, 2, 1)
    projected = np.empty((*psi.shape[:-2], len(index.sets), *psi.shape[-2:]), dtype=np.complex128)
    for k, pairs in enumerate(index.sets):
        rows, cols = zip(*pairs)
        terms[..., list(rows), list(cols), :, :].sum(axis=-3, out=projected[..., k, :, :])
    return projected_probabilities(projected.reshape(*projected.shape[:-2], -1)), projected


# Line multiplicities at N = 1..8: every line single, one line of 2, and a line of 3 (with one of 2 from N = 5).
MULTIPLICITY_PATTERNS = (
    [(1,) * n for n in range(1, 9)]
    + [(2,), (1, 2), (1, 2, 1), (1, 2, 1, 1), (1, 1, 2, 1, 1), (1, 2, 1, 1, 1, 1), (1, 1, 1, 2, 1, 1, 1)]
    + [(3,), (1, 3), (3, 2), (1, 3, 2), (1, 3, 1, 2), (2, 1, 3, 1, 1)]
)


def observable_with_multiplicities(rng: np.random.Generator, multiplicities) -> "Observable":
    """A random-basis observable U diag(lines) U^H whose line k repeats the value k ``multiplicities[k]`` times."""
    from eprkit.linalg import Observable

    n = sum(multiplicities)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    values = np.repeat(np.arange(len(multiplicities), dtype=float), multiplicities)
    return Observable(u @ np.diag(values) @ u.conj().T)


def per_matrix_projected(psi: np.ndarray, stack: np.ndarray, slot: int) -> np.ndarray:
    """The (states, lines, N, N) products ``stack[l] @ psi[j]`` (slot 1) or ``psi[j] @ stack[l].T`` (slot 2).

    Each is its own 2-d product, as a batched product over the (states,
    lines) grid makes them, with no row stacking.
    """
    out = np.empty((len(psi), len(stack), *psi.shape[-2:]), dtype=np.complex128)
    for j, matrix in enumerate(psi):
        for l, projector in enumerate(stack):
            out[j, l] = projector @ matrix if slot == 1 else matrix @ projector.T
    return out


def per_line_projectors(vectors: np.ndarray, multiplicities) -> np.ndarray:
    """The line projectors as one ``block @ block.conj().T`` per line, block the line's copied columns."""
    firsts = np.cumsum((0, *multiplicities))
    return np.array([
        block @ block.conj().T
        for block in (vectors[:, np.arange(lo, hi)] for lo, hi in zip(firsts[:-1], firsts[1:]))
    ])


def per_matrix_from_eigenbasis(v: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``v @ k @ v.T`` of each matrix k of a (states, N, N) stack, as two 2-d products of its own."""
    return np.array([v @ k @ v.T for k in coefficients]).reshape(coefficients.shape)


def per_column_phase_fix(vectors: np.ndarray) -> np.ndarray:
    """``linalg.phase_fix`` as the per-column loop it replaced: each column rotated on its own by ``conj(pivot) / abs(pivot)``."""
    from eprkit.linalg import PHASE_PIVOT_THRESHOLD

    out = np.array(vectors, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        pivots = np.nonzero(np.abs(col) > PHASE_PIVOT_THRESHOLD)[0]
        if pivots.size:
            pivot = col[pivots[0]]
            col *= np.conj(pivot) / abs(pivot)
    return out


def per_table_moments(tables) -> list:
    """``lab._stacked_moments`` as one ``_require_normalized`` and one ``spectral_moments`` call per table, in list order."""
    from eprkit.lab import _require_normalized
    from eprkit.states import spectral_moments

    moments = []
    for measured, values, probs in tables:
        _require_normalized(probs, measured)
        moments.append(spectral_moments(values, probs))
    return moments


def reference_may_exceed_float_range(text: str) -> bool:
    """``io._may_exceed_float_range`` as the str scan it replaced: ``str.translate``, then a substring search per shape."""
    shape = text.translate(str.maketrans("123456789E", "000000000e"))
    return any(pattern in shape for pattern in ("e000", "e+000", "0" * 200))


def reference_anti_diagonals(spectrum):
    """``composite.anti_diagonals`` as the per-pair loop with one ``np.mean`` per line that the array version replaced.

    The array version must reproduce its sums and sets bit for bit.
    """
    from eprkit.composite import AntiDiagonalIndex
    from eprkit.linalg import default_grouping_tol, group_close_values

    ev = np.asarray(spectrum, dtype=float)
    n = ev.size
    pair_sums = np.array([ev[i] + ev[j] for i in range(n) for j in range(n)])
    pairs = [(i, j) for i in range(n) for j in range(n)]
    tol = default_grouping_tol(pair_sums)
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


def dense_epr_analysis(sc):
    """``run_epr_analysis`` along the dense route, ``dense_epr_entries`` packed into a report."""
    return packed_report(sc.label, *dense_epr_entries(sc))


def dense_epr_entries(sc):
    """The dense route's ``(spectrum, branches, chains)``: N^2 x N^2 lifted and sum projectors applied to the state vector.

    It builds one ``SumBranchReport`` per branch and one ``ChainReport`` per
    chain. Every measurement is ``project_outcomes`` with the package's
    ``lift`` and ``sum_observable``, every collapse a ``collapse`` of the
    projected vector, and every audit's right-hand side the expectation of
    the lifted C, so it runs none of the factor-space measurements it
    cross-checks.
    """
    from eprkit.composite import (
        ZERO_PROB_THRESHOLD,
        anti_diagonal_index,
        collapse,
        lift,
        schmidt_rank,
        sum_observable,
    )
    from eprkit.conditional import POINT_MASS_TOL, PredictionSummary, SumConstraintReport
    from eprkit.lab import ChainReport, SumBranchReport
    from eprkit.states import outcome_probabilities, prediction_error, project_outcomes, uncertainty_report

    a = sc.obs_a
    a.require_nondegenerate()
    s_obs = sum_observable(a)
    index = anti_diagonal_index(a)
    spectrum, branch_vectors = project_outcomes(sc.initial_state, s_obs)
    factors = {"a": a, "b": sc.obs_b, "c": sc.obs_c}
    lifted = {(name, slot): lift(obs, slot) for name, obs in factors.items() for slot in (1, 2)}
    # the audits' slack scales with C's largest |entry|, which lifting keeps
    c_magnitude = float(np.abs(sc.obs_c.matrix).max())
    branches, chains = [], []
    for k, (s_value, prob) in enumerate(spectrum.outcomes):
        if prob < ZERO_PROB_THRESHOLD:
            continue
        psi_s = collapse(sc.initial_state, branch_vectors[k], prob)
        measured = {key: project_outcomes(psi_s, obs) for key, obs in lifted.items()}
        dists = {key: dist for key, (dist, _) in measured.items()}
        summaries = {key: PredictionSummary(mean=d.mean_of(d.values), stdev=d.moments()[1]) for key, d in dists.items()}
        audits = {
            slot: uncertainty_report(
                summaries[("a", slot)].stdev,
                summaries[("b", slot)].stdev,
                0.5 * abs(psi_s.expectation(lifted[("c", slot)].matrix)),
                c_magnitude,
            )
            for slot in (1, 2)
        }
        mean1, stdev1 = dists[("a", 1)].moments(a.eigenvalues)
        mean2, stdev2 = dists[("a", 2)].moments(a.eigenvalues)
        branches.append(
            SumBranchReport(
                s_value=s_value,
                probability=prob,
                schmidt_rank=schmidt_rank(psi_s),
                **{f"{name}{slot}": summaries[(name, slot)] for name in "abc" for slot in (1, 2)},
                sum_constraint=SumConstraintReport(
                    mean_identity_residual=abs(mean2 - (s_value - mean1)), stdev_gap=abs(stdev1 - stdev2)
                ),
                audit_slot1=audits[1],
                audit_slot2=audits[2],
            )
        )
        for n, m in index.sets[k]:
            cond_prob = float(dists[("a", 1)].probabilities[n])
            if cond_prob < ZERO_PROB_THRESHOLD:
                continue
            phi = collapse(psi_s, measured[("a", 1)][1][n], cond_prob)
            a2_dist = outcome_probabilities(phi, lifted[("a", 2)])
            if not (a2_dist.probabilities[m] >= 1.0 - POINT_MASS_TOL):
                raise ValueError("a state left by the measurement chain misses its A(2) point mass")
            a2_predicted, a2_stdev = a2_dist.moments(a.eigenvalues)
            chains.append(
                ChainReport(
                    s_value=s_value,
                    a1_value=float(a.eigenvalues[n]),
                    a2_value=float(a.eigenvalues[m]),
                    conditional_probability=cond_prob,
                    a2_predicted=a2_predicted,
                    a2_stdev=a2_stdev,
                    point_mass_residual=abs(1.0 - a2_dist.outcomes[m][1]),
                    resolution=uncertainty_report(
                        a2_dist.moments()[1],
                        prediction_error(phi, lifted[("b", 2)]),
                        0.5 * abs(phi.expectation(lifted[("c", 2)].matrix)),
                        c_magnitude,
                    ),
                )
            )
    return spectrum, branches, chains


def reference_epr_analysis(sc):
    """``run_epr_analysis`` as the state-by-state loop, ``reference_epr_entries`` packed into a report."""
    return packed_report(sc.label, *reference_epr_entries(sc))


def reference_epr_entries(sc):
    """``run_epr_analysis``'s ``(spectrum, branches, chains)`` from the state-by-state loop the stacked pass replaced, with that loop's arithmetic.

    One branch, then one chain, at a time: each collapse divides by
    ``np.linalg.norm``, each measurement is one batched product of the
    factor's projector stack with one coefficient matrix, each summary mean
    a Python ``sum`` in outcome order, each stdev a pair of ``np.dot`` calls,
    and each audit's right-hand side ``abs`` of a ``vdot``. The analysis reads
    the same report off the joint table |K|^2, so it must reproduce every
    int, bool and key of it exactly and every float within
    1e-12 * max(1, |x|, R), R the largest |eigenvalue| of A, B and C.
    """
    import math

    from eprkit.composite import ZERO_PROB_THRESHOLD, anti_diagonal_index
    from eprkit.conditional import PredictionSummary, SumConstraintReport
    from eprkit.lab import ChainReport, SumBranchReport
    from eprkit.states import OutcomeDistribution, uncertainty_report

    def norms(projected):
        flat = np.reshape(projected, (len(projected), -1))
        return np.clip(np.vecdot(flat, flat).real, 0.0, 1.0).tolist()

    def collapse(projected):
        vec = np.ascontiguousarray(projected, dtype=np.complex128).reshape(-1)
        return (vec / float(np.linalg.norm(vec))).reshape(projected.shape)

    def project_slot(psi, obs, slot):
        stack = obs.projectors
        projected = stack @ psi if slot == 1 else psi @ stack.transpose(0, 2, 1)
        return norms(projected), projected

    def slot_expectation(psi, c, slot):
        return complex(np.vdot(psi, c.matrix @ psi if slot == 1 else psi @ c.matrix.T))

    def mean_of(fvals, probs):
        return float(sum(fv * p for fv, p in zip(fvals, probs, strict=True)))

    def moments(fvals, probs):
        probs = np.array(probs)
        mean = float(np.dot(fvals, probs))
        var = float(np.dot((fvals - mean) ** 2, probs))
        return mean, math.sqrt(max(var, 0.0))

    a, b, c = sc.obs_a, sc.obs_b, sc.obs_c
    a.require_nondegenerate()
    n_dim = sc.factor_dim
    c_magnitude = float(np.abs(c.matrix).max())
    index = anti_diagonal_index(a)
    psi = sc.initial_state.amplitudes.reshape(n_dim, n_dim)
    stack = a.projectors
    terms = (stack @ psi)[:, None] @ stack.transpose(0, 2, 1)[None]
    branch_matrices = [terms[[n for n, _ in pairs], [m for _, m in pairs]].sum(axis=0) for pairs in index.sets]
    spectrum = OutcomeDistribution(outcomes=tuple(zip(index.sums, norms(branch_matrices))))
    factors = {"a": a, "b": b, "c": c}
    a_values = a.eigenvalues

    branches = []
    chains = []
    for k, (s_value, prob) in enumerate(spectrum.outcomes):
        if prob < ZERO_PROB_THRESHOLD:
            continue
        coeff_s = collapse(branch_matrices[k])
        measured = {(name, slot): project_slot(coeff_s, obs, slot) for name, obs in factors.items() for slot in (1, 2)}
        summaries = {
            (name, slot): PredictionSummary(
                mean=mean_of(factors[name].eigenvalues, probs), stdev=moments(factors[name].eigenvalues, probs)[1]
            )
            for (name, slot), (probs, _) in measured.items()
        }
        audits = {
            slot: uncertainty_report(
                summaries[("a", slot)].stdev,
                summaries[("b", slot)].stdev,
                0.5 * abs(slot_expectation(coeff_s, c, slot)),
                c_magnitude,
            )
            for slot in (1, 2)
        }
        a1_probs, chain_matrices = measured[("a", 1)]
        mean1, stdev1 = moments(a_values, a1_probs)
        mean2, stdev2 = moments(a_values, measured[("a", 2)][0])
        branches.append(
            SumBranchReport(
                s_value=s_value,
                probability=prob,
                schmidt_rank=int(np.count_nonzero(np.linalg.svd(coeff_s, compute_uv=False) > 1e-10)),
                **{f"{name}{slot}": summaries[(name, slot)] for name in "abc" for slot in (1, 2)},
                sum_constraint=SumConstraintReport(
                    mean_identity_residual=abs(mean2 - (s_value - mean1)), stdev_gap=abs(stdev1 - stdev2)
                ),
                audit_slot1=audits[1],
                audit_slot2=audits[2],
            )
        )

        for n, m in index.sets[k]:
            cond_prob = a1_probs[n]
            if cond_prob < ZERO_PROB_THRESHOLD:
                continue
            coeff_phi = collapse(chain_matrices[n])
            a2_probs = project_slot(coeff_phi, a, 2)[0]
            assert a2_probs[m] >= 1.0 - 1e-10
            predicted, stdev = moments(a_values, a2_probs)
            chains.append(
                ChainReport(
                    s_value=s_value,
                    a1_value=float(a_values[n]),
                    a2_value=float(a_values[m]),
                    conditional_probability=cond_prob,
                    a2_predicted=predicted,
                    a2_stdev=stdev,
                    point_mass_residual=abs(1.0 - a2_probs[m]),
                    resolution=uncertainty_report(
                        stdev,
                        moments(b.eigenvalues, project_slot(coeff_phi, b, 2)[0])[1],
                        0.5 * abs(slot_expectation(coeff_phi, c, 2)),
                        c_magnitude,
                    ),
                )
            )

    return spectrum, branches, chains


def _columns(cls, records):
    """The dataclass ``records`` as one ``cls`` whose every leaf lists their values; a nested dataclass field as its own ``_columns``."""
    hints = typing.get_type_hints(cls)
    return cls(
        *(
            _columns(hints[f.name], [getattr(r, f.name) for r in records])
            if dataclasses.is_dataclass(hints[f.name])
            else [getattr(r, f.name) for r in records]
            for f in dataclasses.fields(cls)
        )
    )


def packed_report(label, spectrum, branches, chains):
    """The ``EprReport`` of these ``SumBranchReport`` and ``ChainReport`` records, packed into one record of lists each.

    The oracles above build one record per branch and chain, with their own
    arithmetic; only this packing is shared with the report's layout.
    """
    from eprkit.lab import ChainReport, EprReport, SumBranchReport

    return EprReport(
        scenario_label=label,
        sum_spectrum=spectrum,
        branch_columns=_columns(SumBranchReport, branches),
        chain_columns=_columns(ChainReport, chains),
    )


def _quantize(value):
    """Round every float to 15 significant digits, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _quantize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_quantize(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_emit_json(payload) -> str:
    """``io.emit_json`` as it was before the one-pass writer: a rounded copy, then ``json.dumps(indent=2)``.

    The writer must reproduce these bytes, and raise the same exception type
    (ValueError for NaN and infinities, TypeError for anything else JSON
    cannot hold) where this raises. Only dict keys differ: the writer takes
    str keys alone and raises TypeError where this writes a number, bool or
    None key as its text.
    """
    return json.dumps(_quantize(payload), indent=2, allow_nan=False) + "\n"


def complex_pairs(values):
    """A complex number as its [re, im] pair, and a list of them, nested to any depth, as a list of pairs."""
    if isinstance(values, list):
        return [complex_pairs(v) for v in values]
    return [values.real, values.imag]


def expanded_records(value):
    """``value`` with each ``io._KeyedRecord`` and ``io._ArrayRecord`` in it written out as plain lists and dicts, for ``reference_emit_json``.

    A keyed record's rows are its one-row records (``lab._rows``) as ``dataclasses.asdict`` gives them,
    less the fields that key them, zipped into a dict with its keys. An array record's entries are the
    [re, im] pairs of its complex array's ``tolist()``.
    """
    from eprkit.io import _ArrayRecord, _KeyedRecord
    from eprkit.lab import _rows

    if type(value) is _KeyedRecord:
        rows = [dict(list(dataclasses.asdict(row).items())[value.skip :]) for row in _rows(value.record)]
        return dict(zip(value.keys, rows))
    if type(value) is _ArrayRecord:
        return complex_pairs(value.array.tolist())
    if isinstance(value, dict):
        return {key: expanded_records(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(expanded_records, value))
    return value


def reference_analysis_payload(report) -> dict:
    """``io.analysis_to_payload`` as it was before the report kept columns: a walk over ``per_sum`` and ``chains``.

    The columnar payload must equal this dict, key order included.
    """

    def summary(s):
        return {"mean": s.mean, "stdev": s.stdev}

    def audit(a):
        return {"delta_a": a.delta_a, "delta_b": a.delta_b, "rhs": a.rhs, "satisfied": a.satisfied}

    per_sum = {}
    for branch in report.per_sum:
        per_sum[f"{branch.s_value:.12g}"] = {
            "probability": branch.probability,
            "schmidt_rank": branch.schmidt_rank,
            **{name: summary(getattr(branch, name)) for name in ("a1", "a2", "b1", "b2", "c1", "c2")},
            "sum_constraint": {
                "mean_identity_residual": branch.sum_constraint.mean_identity_residual,
                "stdev_gap": branch.sum_constraint.stdev_gap,
            },
            "audit_slot1": audit(branch.audit_slot1),
            "audit_slot2": audit(branch.audit_slot2),
        }
    chains = {}
    for chain in report.chains:
        chains[f"{chain.s_value:.12g},{chain.a1_value:.12g}"] = {
            "a2_value": chain.a2_value,
            "conditional_probability": chain.conditional_probability,
            "a2_predicted": chain.a2_predicted,
            "a2_stdev": chain.a2_stdev,
            "point_mass_residual": chain.point_mass_residual,
            "resolution": audit(chain.resolution),
        }
    return {
        "sum_spectrum": [{"value": v, "probability": p} for v, p in report.sum_spectrum.outcomes],
        "per_sum": per_sum,
        "chains": chains,
    }
