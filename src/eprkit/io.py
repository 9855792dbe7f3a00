"""JSON serialization for scenario files and run reports.

Complex numbers are two-element [re, im] arrays, matrices are row-major
nested arrays, and every float is emitted with 15 significant digits (a
representation that survives a parse/emit round trip unchanged). Parsing is
strict: unknown fields are rejected so that typos fail loudly instead of
being silently ignored.

``emit_json`` is one recursive pass that appends text pieces and joins them;
its bytes are those of ``json.dumps(indent=2, allow_nan=False)`` applied to
the payload with every float rounded to 15 significant digits. A float's
text is ``f"{v:.15g}"`` itself, which for a finite value already is the
shortest repr of the rounded double; only an integral text (given ``.0``),
the exponent +15 and exponents of magnitude 308 or more (written by
``repr`` after the round trip) differ. Every dict key must be a str, as
every payload key is; any other key raises TypeError, like any other
value JSON cannot hold (``json.dumps`` would write a number, bool or None
key as its text).
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

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
from .states import _require_integer

SCHEMA_VERSION = 1

_SCENARIO_REQUIRED = {"schema_version", "label", "factor_dim", "matrix_a", "matrix_b", "alpha", "state"}
_SCENARIO_OPTIONAL = {"matrix_c"}
_REPORT_REQUIRED = {"schema_version", "label", "inputs", "analysis", "metadata"}
_REPORT_OPTIONAL = {"sampling"}


def _float_text(value: float) -> str:
    """``repr(float(f"{value:.15g}"))``, built from the formatted text without the round trip.

    A finite decimal of at most 15 significant digits parses to its own
    double, whose shortest repr has the same digits; only the layout can
    differ. An integral text gains ``.0`` and a non-finite value raises, as
    ``json.dumps(allow_nan=False)`` does. The exponent +15 (which repr writes
    positionally) and |exponent| >= 308 (subnormals, and values that round
    to inf) go through the round trip.
    """
    text = f"{value:.15g}"
    mark = text.find("e")
    if mark < 0:
        if "." in text:
            return text
        if text[-1] not in "fn":  # inf, -inf and nan fall through to the check below
            return text + ".0"
    elif -308 < (exponent := int(text[mark + 1 :])) < 308 and exponent != 15:
        return text
    rounded = float(text)
    if not math.isfinite(rounded):
        raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    return repr(rounded)


def _scalar_text(value) -> str:
    """The JSON text of a non-container value, checked in json.dumps' order (bool before int).

    Subclasses count: a ``np.float64`` is written as a float.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _encode(value, newline: str, append) -> None:
    """Append the text of value, laid out as ``json.dumps(indent=2)`` lays it out.

    newline is the line break plus the indent of the line value starts on.
    Floats, the bulk of a report, are written inline in the loops.
    """
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        separator = "," + inner
        for key, item in value.items():
            head = opener + _quote(key) + ": "
            opener = separator
            if type(item) is float:
                append(head + _float_text(item))
            elif isinstance(item, (dict, list, tuple)):
                append(head)
                _encode(item, inner, append)
            else:
                append(head + _scalar_text(item))
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        separator = "," + inner
        for item in value:
            if type(item) is float:
                append(opener + _float_text(item))
            elif isinstance(item, (dict, list, tuple)):
                append(opener)
                _encode(item, inner, append)
            else:
                append(opener + _scalar_text(item))
            opener = separator
        append(newline + "]")
    else:
        append(_scalar_text(value))


def emit_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False)`` plus a newline, every float rounded to 15 digits."""
    pieces: list[str] = []
    _encode(payload, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def _matrix_payload(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def _vector_payload(v: np.ndarray) -> list:
    return [[z.real, z.imag] for z in v.tolist()]


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


# A JSON number beyond the float range (about 1.8e308) has an exponent of
# three or more digits after "e" or "e+", or at least 210 digits before its
# point. With every digit written as 0 and E as e, its text then holds one of
# these; a text that holds none has no such number.
_NUMBER_SHAPE = str.maketrans("123456789E", "000000000e")
_BEYOND_FLOAT_RANGE = ("e000", "e+000", "0" * 200)


def _load_json(text: str):
    """Parse JSON whose every number is a finite float; NaN and Infinity are rejected.

    Numbers parse natively unless the text could hold one beyond the float
    range; only then does every number go through ``_finite_float`` and
    ``_finite_int``, which name the first such literal.
    """
    shape = text.translate(_NUMBER_SHAPE)
    hooks = {}
    if any(pattern in shape for pattern in _BEYOND_FLOAT_RANGE):
        hooks = {"parse_float": _finite_float, "parse_int": _finite_int}
    try:
        return json.loads(text, parse_constant=_reject_constant, **hooks)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, the hooks, int() digits, nesting depth
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


# JSON numbers parse to exactly these types; a bool is neither.
_NUMBER_TYPES = (int, float)


def _check_pairs(cells: list, where: str) -> None:
    """Check that every cell is a [re, im] pair of numbers, naming the first that is not as ``where[j]``."""
    for j, cell in enumerate(cells):
        if not (
            type(cell) is list and len(cell) == 2 and type(cell[0]) in _NUMBER_TYPES and type(cell[1]) in _NUMBER_TYPES
        ):
            raise ScenarioFormatError(f"{where}[{j}] must be a [re, im] pair of numbers")


def _complex_array(pairs: list) -> np.ndarray:
    """The complex array of checked [re, im] pairs, nested to any depth, in one conversion."""
    return np.array(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _parse_matrix(entry, n: int, where: str) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != n:
        raise ScenarioFormatError(f"{where} must be a {n}x{n} nested array")
    for i, row in enumerate(entry):
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioFormatError(f"{where} row {i} must have {n} entries")
        _check_pairs(row, f"{where}[{i}]")
    return _complex_array(entry)


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


def _require_unicode_label(label: str) -> None:
    """ScenarioFormatError for a label holding a lone surrogate, which no output can encode.

    JSON escapes can spell one, and so can an argv byte that is not UTF-8.
    """
    try:
        label.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ScenarioFormatError(f"label is not valid Unicode text: {exc}") from exc


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
    _require_unicode_label(payload["label"])
    try:
        n = _require_integer(payload["factor_dim"], "factor_dim", 1)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None
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
    _check_pairs(state_entry, "state")
    state = _complex_array(state_entry)

    for name, matrix in (("matrix_a", matrix_a), ("matrix_b", matrix_b), ("matrix_c", matrix_c)):
        if matrix is not None and not is_hermitian(matrix):
            raise ScenarioInvariantError(f"{name} is not Hermitian within tolerance")

    try:
        return build_scenario(
            payload["label"], matrix_a, matrix_b, state, alpha=float(alpha), matrix_c=matrix_c
        )
    except (EprError, ValueError) as exc:
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
