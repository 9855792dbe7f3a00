"""JSON serialization for scenario files and run reports.

Complex numbers are two-element [re, im] arrays, matrices are row-major
nested arrays, and every float is emitted with 15 significant digits (a
representation that survives a parse/emit round trip unchanged). Parsing is
strict: unknown fields are rejected so that typos fail loudly instead of
being silently ignored.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import EprError, ScenarioFormatError, ScenarioInvariantError
from .lab import (
    EmpiricalComparison,
    EprReport,
    Scenario,
    ShotRecord,
    build_scenario,
    path_key,
)
from .linalg import is_hermitian

SCHEMA_VERSION = 1

_SCENARIO_REQUIRED = {"schema_version", "label", "factor_dim", "matrix_a", "matrix_b", "alpha", "state"}
_SCENARIO_OPTIONAL = {"matrix_c"}
_REPORT_REQUIRED = {"schema_version", "label", "inputs", "analysis", "metadata"}
_REPORT_OPTIONAL = {"sampling"}


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


def emit_json(payload: dict) -> str:
    return json.dumps(_quantize(payload), indent=2, allow_nan=False) + "\n"


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_payload(m: np.ndarray) -> list:
    return [[_complex_pair(z) for z in row] for row in m]


def _vector_payload(v: np.ndarray) -> list:
    return [_complex_pair(z) for z in v]


def _reject_constant(name: str):
    raise ScenarioFormatError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioFormatError(f"number {text} is beyond the float range")
    return value


def _finite_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ScenarioFormatError(f"integer of {len(text)} digits is beyond the float range")
    return value


def _load_json(text: str):
    """Parse JSON whose every number is a finite float; NaN and Infinity are rejected."""
    try:
        return json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_finite_int
        )
    except ValueError as exc:  # JSONDecodeError, the hooks' errors, int() beyond its digit limit
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ScenarioFormatError(f"{where} is missing fields: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioFormatError(f"{where} has unknown fields: {sorted(unknown)}")


def _parse_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise ScenarioFormatError(f"{where} must be a [re, im] pair of numbers")
    return complex(float(entry[0]), float(entry[1]))


def _parse_matrix(entry, n: int, where: str) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != n:
        raise ScenarioFormatError(f"{where} must be a {n}x{n} nested array")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entry):
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioFormatError(f"{where} row {i} must have {n} entries")
        for j, cell in enumerate(row):
            out[i, j] = _parse_complex(cell, f"{where}[{i}][{j}]")
    return out


def scenario_to_payload(sc: Scenario) -> dict:
    """The resolved scenario (C derived if it was absent, state normalized)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": sc.label,
        "factor_dim": sc.factor_dim,
        "matrix_a": _matrix_payload(sc.obs_a.matrix),
        "matrix_b": _matrix_payload(sc.obs_b.matrix),
        "matrix_c": _matrix_payload(sc.obs_c.matrix),
        "alpha": sc.alpha,
        "state": _vector_payload(sc.initial_state.amplitudes),
    }


def scenario_to_json(sc: Scenario) -> str:
    return emit_json(scenario_to_payload(sc))


def scenario_from_json(text: str) -> Scenario:
    """Parse and validate a scenario file.

    Schema problems raise ScenarioFormatError; files that parse but violate a
    physical invariant (hermiticity, state norm, commutation consistency)
    raise ScenarioInvariantError naming the offending field.
    """
    payload = _load_json(text)
    _check_keys(payload, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, "scenario")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ScenarioFormatError(f"unsupported schema_version {payload['schema_version']!r}")
    if not isinstance(payload["label"], str):
        raise ScenarioFormatError("label must be a string")
    n = payload["factor_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ScenarioFormatError("factor_dim must be a positive integer")
    alpha = payload["alpha"]
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or alpha == 0:
        raise ScenarioFormatError("alpha must be a nonzero number")

    matrix_a = _parse_matrix(payload["matrix_a"], n, "matrix_a")
    matrix_b = _parse_matrix(payload["matrix_b"], n, "matrix_b")
    matrix_c = None
    if "matrix_c" in payload:
        matrix_c = _parse_matrix(payload["matrix_c"], n, "matrix_c")
    state_entry = payload["state"]
    if not isinstance(state_entry, list) or len(state_entry) != n * n:
        raise ScenarioFormatError(f"state must have {n * n} amplitude pairs")
    state = np.array([_parse_complex(z, f"state[{i}]") for i, z in enumerate(state_entry)])

    for name, matrix in (("matrix_a", matrix_a), ("matrix_b", matrix_b), ("matrix_c", matrix_c)):
        if matrix is not None and not is_hermitian(matrix):
            raise ScenarioInvariantError(f"{name} is not Hermitian within tolerance")

    try:
        return build_scenario(
            payload["label"], matrix_a, matrix_b, state, alpha=float(alpha), matrix_c=matrix_c
        )
    except EprError as exc:
        raise ScenarioInvariantError(str(exc)) from exc
    except ValueError as exc:
        raise ScenarioInvariantError(str(exc)) from exc


def _summary_payload(summary) -> dict:
    return {"mean": summary.mean, "stdev": summary.stdev}


def _audit_payload(audit) -> dict:
    return {
        "delta_a": audit.delta_a,
        "delta_b": audit.delta_b,
        "rhs": audit.rhs,
        "satisfied": audit.satisfied,
    }


def _distribution_payload(dist) -> list:
    return [{"value": v, "probability": p} for v, p in dist.outcomes]


def analysis_to_payload(report: EprReport) -> dict:
    per_sum = {}
    for branch in report.per_sum:
        per_sum[f"{branch.s_value:.12g}"] = {
            "probability": branch.probability,
            "schmidt_rank": branch.schmidt_rank,
            "a1": _summary_payload(branch.a1),
            "a2": _summary_payload(branch.a2),
            "b1": _summary_payload(branch.b1),
            "b2": _summary_payload(branch.b2),
            "c1": _summary_payload(branch.c1),
            "c2": _summary_payload(branch.c2),
            "sum_constraint": {
                "mean_identity_residual": branch.sum_constraint.mean_identity_residual,
                "stdev_gap": branch.sum_constraint.stdev_gap,
            },
            "audit_slot1": _audit_payload(branch.audit_slot1),
            "audit_slot2": _audit_payload(branch.audit_slot2),
        }
    chains = {}
    for chain in report.chains:
        chains[f"{chain.s_value:.12g},{chain.a1_value:.12g}"] = {
            "a2_value": chain.a2_value,
            "conditional_probability": chain.conditional_probability,
            "a2_predicted": chain.a2_predicted,
            "a2_stdev": chain.a2_stdev,
            "point_mass_residual": chain.point_mass_residual,
            "resolution": _audit_payload(chain.resolution),
        }
    return {
        "sum_spectrum": _distribution_payload(report.sum_spectrum),
        "per_sum": per_sum,
        "chains": chains,
    }


def sampling_to_payload(record: ShotRecord, comparison: EmpiricalComparison) -> dict:
    return {
        "seed": record.seed,
        "shots": record.shots,
        "counts": {path_key(*path): count for path, count in record.counts},
        "empirical": {path_key(*path): freq for path, freq in record.empirical.items()},
        "comparison": {
            "max_abs_deviation": comparison.max_abs_deviation,
            "within_3sigma": comparison.within_3sigma,
            "paths": {
                path_key(*row.path): {
                    "analytic": row.analytic,
                    "empirical": row.empirical,
                    "deviation": row.deviation,
                    "bound": row.bound,
                }
                for row in comparison.paths
            },
        },
    }


def run_report_payload(sc: Scenario, analysis: dict, sampling: dict | None, version: str) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "label": sc.label,
        "inputs": scenario_to_payload(sc),
        "analysis": analysis,
    }
    if sampling is not None:
        payload["sampling"] = sampling
    payload["metadata"] = {"tool": "eprkit", "version": version}
    return payload


def run_report_from_json(text: str) -> dict:
    """Strictly parse a run report back into its payload dictionary."""
    payload = _load_json(text)
    _check_keys(payload, _REPORT_REQUIRED, _REPORT_OPTIONAL, "report")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ScenarioFormatError(f"unsupported schema_version {payload['schema_version']!r}")
    _check_keys(payload["inputs"], _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, "report inputs")
    _check_keys(
        payload["analysis"],
        {"sum_spectrum", "per_sum", "chains"},
        set(),
        "report analysis",
    )
    if "sampling" in payload:
        _check_keys(
            payload["sampling"],
            {"seed", "shots", "counts", "empirical", "comparison"},
            set(),
            "report sampling",
        )
    _check_keys(payload["metadata"], {"tool", "version"}, set(), "report metadata")
    return payload
