"""The one-pass report writer, byte for byte against the rounded-copy-plus-json.dumps it replaced.

Reports are compared as the CLI writes them (bundled scenarios, the
benchmark's generated workloads) and as the golden files hold them; a
hypothesis fuzz covers payload shapes and floats that no report reaches.
The CLI writes the branches and chains from the report's columns
(``io._KeyedRecord``); the reference writes them as the plain dicts of
``analysis_to_payload``, which is compared with the walk over the branch
and chain objects that it replaced. perfbench/ is only read: its golden
files and its workload generator.
"""

import dataclasses
import functools
import gc
import importlib.util
import json
import math
import sys
import typing
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprkit import io as eprio
from eprkit.cli import EXIT_OK, main
from eprkit.conditional import PredictionSummary
from eprkit.lab import ChainReport, SumBranchReport, build_scenario
from helpers import (
    expanded_records,
    random_hermitian,
    random_state_vector,
    reference_analysis_payload,
    reference_emit_json,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BUNDLED = ["pauli_epr", "pauli_uniform", "spin_one"]


@functools.cache
def load_workloads():
    """perfbench/workloads.py, imported from its file under its own name (its dataclass needs the module registered)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def emitted_payloads(argv, monkeypatch, capsys) -> tuple[list, list, str]:
    """Run one ``epr`` command; return the payloads it emitted, the run reports it composed and its stdout.

    A run report is kept as the (scenario, sampling, version) that ``io.run_report`` was given.
    """
    seen, composed = [], []
    emit, compose = eprio.emit_json, eprio.run_report
    monkeypatch.setattr(eprio, "emit_json", lambda payload: seen.append(payload) or emit(payload))
    monkeypatch.setattr(eprio, "run_report", lambda *args: composed.append(args) or compose(*args))
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(eprio, "emit_json", emit)
    monkeypatch.setattr(eprio, "run_report", compose)
    return seen, composed, capsys.readouterr().out


def assert_cli_matches_reference(argv, monkeypatch, capsys) -> None:
    payloads, composed, out = emitted_payloads(argv, monkeypatch, capsys)
    assert len(payloads) == 1
    assert out == reference_emit_json(expanded_records(payloads[0]))
    for sc, sampling, version in composed:  # one for analyze and sample, none for demo-pauli
        analysis = eprio.analysis_to_payload(sc.analysis)
        assert out == reference_emit_json(eprio.run_report_payload(sc, analysis, sampling, version))


@pytest.mark.parametrize("stem", BUNDLED)
@pytest.mark.parametrize("command", [["analyze"], ["sample", "--shots", "10000", "--seed", "3"]])
def test_bundled_reports_match_the_reference(stem, command, monkeypatch, capsys):
    path = str(files("eprkit.scenarios") / f"{stem}.json")
    assert_cli_matches_reference([command[0], path, *command[1:]], monkeypatch, capsys)


def test_demo_pauli_scenario_matches_the_reference(monkeypatch, capsys):
    argv = ["demo-pauli", "--amplitudes", "0.6,0,0,0.1,-0.3,0.2,0,0.7", "--label", "tést\n"]
    assert_cli_matches_reference(argv, monkeypatch, capsys)


@pytest.mark.parametrize("golden", sorted(PERFBENCH.glob("golden/analyze-*.json")), ids=lambda p: p.stem)
def test_golden_reports_re_emit_unchanged(golden):
    text = golden.read_text(encoding="utf-8")
    payload = eprio.run_report_from_json(text)
    assert eprio.emit_json(payload) == reference_emit_json(payload) == text


@pytest.mark.parametrize("workload", ["analyze_large", "cli_small"])
@pytest.mark.parametrize("seed", range(6))
def test_workload_reports_match_the_reference(workload, seed, tmp_path, monkeypatch, capsys):
    workloads = load_workloads()
    scenario_dir = Path(eprio.__file__).parent / "scenarios"
    ops = [op for op in workloads.build(workload, seed, tmp_path, scenario_dir) if op.kind != "verify"]
    assert ops
    for op in ops:
        assert_cli_matches_reference(op.argv, monkeypatch, capsys)


def analyzed_scenarios():
    """The bundled scenarios, and the benchmark's generated ones at N = 2..8, equally spaced and generic, seeds 0-5."""
    yield from (eprio.scenario_from_json((files("eprkit.scenarios") / f"{stem}.json").read_text()) for stem in BUNDLED)
    workloads = load_workloads()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for n in range(2, 9):
            for equal in (True, False):
                payload = workloads.scenario_payload(rng, n, equal, f"n{n}-{seed}")
                yield eprio.scenario_from_json(json.dumps(payload))


def test_analysis_payload_from_columns_equals_the_object_walk():
    # repr pins key order, value types and every float's bits
    scenarios = 0
    for sc in analyzed_scenarios():
        report = sc.analysis
        assert repr(eprio.analysis_to_payload(report)) == repr(reference_analysis_payload(report))
        scenarios += 1
    assert scenarios == 3 + 6 * 7 * 2


def test_run_reports_from_columns_match_the_reference():
    # the report as the CLI composes it, written from the columns, against the object walk's dicts
    for sc in analyzed_scenarios():
        want = eprio.run_report_payload(sc, reference_analysis_payload(sc.analysis), None, "test")
        assert eprio.emit_json(eprio.run_report(sc, None, "test")) == reference_emit_json(want)


def test_emitting_a_report_leaves_no_reference_cycle():
    # a walk that keeps itself alive (a closure calling itself) would hold each
    # report's pieces until the collector runs
    rng = np.random.default_rng(8)
    sc = build_scenario("gc", random_hermitian(rng, 8), random_hermitian(rng, 8), random_state_vector(rng, 64))
    payload = eprio.run_report(sc, None, "test")
    gc.collect()
    gc.disable()
    try:
        text = eprio.emit_json(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(text) > 50_000


def outcome(emit, payload):
    """The text emit writes, or the type of the exception it raises."""
    try:
        return emit(payload)
    except (ValueError, TypeError) as exc:
        return type(exc)


# every double that stays finite at 15 digits; the ones beyond are in NON_FINITE below
LARGEST = 1.79769313486231e308
FLOATS = st.one_of(
    st.floats(min_value=-LARGEST, max_value=LARGEST),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and the normal edge
    st.floats(min_value=1e15, max_value=1e16, exclude_max=True),  # repr writes these positionally
    st.floats(min_value=-1e16, max_value=-1e15, exclude_min=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 9.999999999999999e14, LARGEST]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    FLOATS,
    FLOATS.map(np.float64),
)
KEYS = st.text()  # any code point: non-ASCII, control characters, quotes and backslashes
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
@example({"é\x00\n\"\\\u2028": [1e15, -0.0, 5e-324, (True, None, 7)]})
@example([])
@example({})
@example({"z": [1.5, -0.0]})  # an [re, im] pair as a dict value
@example({"t": (1.0, 2.0)})  # a tuple of two floats, which is not written as a pair
@example({"e": {}, "l": [[], {}]})
@example({"n": np.float64(0.1), "p": [np.float64(1.0), 2.0]})  # float subclasses
def test_fuzzed_payloads_match_the_reference(payload):
    assert outcome(eprio.emit_json, payload) == outcome(reference_emit_json, payload)


@st.composite
def payload_holding(draw, leaves):
    """A nested payload with a drawn leaf somewhere inside it, beside fuzzed siblings."""
    value = draw(leaves)
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(PAYLOADS, max_size=3))
        siblings.insert(draw(st.integers(0, len(siblings))), value)
        shape = draw(st.sampled_from(["list", "tuple", "dict"]))
        if shape == "dict":
            keys = draw(st.lists(KEYS, min_size=len(siblings), max_size=len(siblings), unique=True))
            value = dict(zip(keys, siblings))
        else:
            value = siblings if shape == "list" else tuple(siblings)
    return value


# the largest double rounds to 1.79769313486232e308 at 15 digits, beyond the float range;
# siblings hold only valid values, since a payload with two faults may raise either
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 1.7976931348623157e308, -1.7976931348623157e308])
UNSUPPORTED = st.sampled_from([object(), {1, 2}, 1 + 2j, np.int64(3), np.bool_(True), b"bytes"])


# a few values drawn again and again, as a report repeats its stdevs and a matrix its real parts
REPEATED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-17, -2.5e-300, 1e15, 123456.789012345, 5e-324])
REPEATED_PAYLOADS = st.recursive(
    st.one_of(REPEATED, st.lists(REPEATED, min_size=2, max_size=2)),  # [re, im] pairs of floats
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["re", "im", "mean"]), children, max_size=3),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(REPEATED_PAYLOADS)
@example([[0.0, -0.0], [-0.0, 0.0], {"re": -0.0, "im": 0.0}, [0.0, [-0.0, -0.0]]])
@example({"re": [[1.0, 1.0], [1.0, -1.0]], "im": (1e-17, [1e-17, 1e15])})
def test_repeated_values_and_signed_zeros_match_the_reference(payload):
    # each distinct float is formatted once per emit, and 0.0 and -0.0, equal as keys, keep their own texts
    assert eprio.emit_json(payload) == reference_emit_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        [1.0, math.nan],
        [[0.5, 0.5], [0.5, math.inf]],
        {"a": -0.0, "b": 0.0, "c": [math.nan, 0.0]},
        {"x": 1.79769313486231e308, "y": [1.79769313486231e308, 1.7976931348623157e308]},
        [-1e308, [-1e308, -math.inf]],
    ],
    ids=["nan-after-its-list", "inf-in-a-pair", "nan-after-zeros", "rounds-to-inf-after-the-largest", "minus-inf"],
)
def test_non_finite_after_an_emitted_value_raises_value_error(payload):
    # a non-finite float never reads a text kept for a finite one
    assert outcome(reference_emit_json, payload) is ValueError
    assert outcome(eprio.emit_json, payload) is ValueError


@settings(max_examples=150, deadline=None)
@given(payload_holding(st.one_of(NON_FINITE, NON_FINITE.map(np.float64))))
def test_non_finite_floats_raise_value_error(payload):
    assert outcome(reference_emit_json, payload) is ValueError
    assert outcome(eprio.emit_json, payload) is ValueError


@settings(max_examples=150, deadline=None)
@given(payload_holding(UNSUPPORTED))
def test_unsupported_values_raise_type_error(payload):
    assert outcome(reference_emit_json, payload) is TypeError
    assert outcome(eprio.emit_json, payload) is TypeError


@pytest.mark.parametrize("key", [1, 1.5, True, None, b"k"], ids=["int", "float", "bool", "none", "bytes"])
def test_non_str_keys_raise_type_error(key):
    # json.dumps writes a number, bool or None key as its text; no payload has one
    with pytest.raises(TypeError):
        eprio.emit_json({"outer": {key: 1.0}})


@dataclasses.dataclass(frozen=True)
class Keyed:
    s_value: list
    value: list
    moments: PredictionSummary


def keyed(keys, leaves, nested=None):
    """A ``_KeyedRecord`` of ``SumBranchReport``-like shape: a key column, one leaf column and a nested record."""
    rows = len(leaves)
    nested = nested or PredictionSummary([0.5] * rows, [0.25] * rows)
    return eprio._KeyedRecord(keys, Keyed(list(map(float, range(rows))), leaves, nested), 1)


@pytest.mark.parametrize(
    "payload",
    [
        keyed(["a", "b", "a"], [1.0, 2.0, 3.0]),  # "a" keeps its first position and its last row
        keyed(["a", "a", "a"], [-0.0, 0.0, 1.5]),
        keyed(["a", "b"], [1.0, 2.0, 3.0]),  # rows past the keys are dropped, as zip drops them
        keyed(["a", "b", "c"], [1.0]),
        keyed(["x", "x"], [math.nan, 2.0]),  # a NaN in a row a repeated key replaces is never written
        keyed([], []),
        keyed(["a"], []),
        {"empty": keyed([], []), "nested": [keyed([], [])]},
        keyed(["z", "e"], [-0.0, 0.0], PredictionSummary([-0.0, 0.0], [0.0, -0.0])),
        keyed(list("abcdefg"), [1e15, 9.999999999999999e14, 5e-324, -2.2250738585072014e-308, 1e308, -1e-308, 1e16]),
        keyed(list("abcd"), [1.0, True, 3, np.float64(0.1)], PredictionSummary([False, 2**70], [None, "é\n"])),
        {"outer": [keyed(["é\x00\"\\"], [0.1])], "again": keyed(["a", "b"], [0.1, 0.2])},  # two indents
    ],
    ids=[
        "colliding-key",
        "one-key-thrice",
        "more-rows-than-keys",
        "more-keys-than-rows",
        "nan-in-a-replaced-row",
        "empty",
        "keys-but-no-rows",
        "empty-nested",
        "signed-zeros",
        "edge-magnitudes",
        "bool-int-and-subclass-leaves",
        "quoted-key-and-two-indents",
    ],
)
def test_keyed_records_match_the_reference(payload):
    assert eprio.emit_json(payload) == reference_emit_json(expanded_records(payload))


@pytest.mark.parametrize(
    "payload",
    [
        keyed(["a", "b"], [1.0, math.nan]),
        keyed(["a", "b"], [math.inf, 1.0]),
        keyed(["a"], [1.0], PredictionSummary([-math.inf], [1.0])),
        keyed(["a", "b"], [1.79769313486231e308, 1.7976931348623157e308]),  # the second rounds to inf
        {"first": keyed(["a"], [0.5]), "second": keyed(["b"], [np.float64(math.nan)])},
    ],
    ids=["nan", "inf", "minus-inf-nested", "rounds-to-inf", "nan-float64-in-a-second-record"],
)
def test_non_finite_leaves_raise_value_error(payload):
    assert outcome(reference_emit_json, expanded_records(payload)) is ValueError
    assert outcome(eprio.emit_json, payload) is ValueError


def record_of(draw, cls, rows: int, leaves):
    """A ``cls`` record of ``rows`` drawn leaves per column, a nested record field as a record of its own."""
    hints = typing.get_type_hints(cls)
    return cls(
        *(
            record_of(draw, hints[f.name], rows, leaves)
            if dataclasses.is_dataclass(hints[f.name])
            else draw(st.lists(leaves, min_size=rows, max_size=rows))
            for f in dataclasses.fields(cls)
        )
    )


ROW_KEYS = st.one_of(st.sampled_from(["0", "1", "-0.5,1"]), KEYS)  # few keys, so that they collide


@st.composite
def keyed_payloads(draw):
    """A payload holding a fuzzed ``_KeyedRecord`` of a report record class, at the top or nested."""
    cls, skip = draw(st.sampled_from([(SumBranchReport, 1), (ChainReport, 2), (Keyed, 1), (PredictionSummary, 0)]))
    rows = draw(st.integers(0, 4))
    keys = draw(st.lists(ROW_KEYS, min_size=max(0, rows - 1), max_size=rows + 1))
    value = eprio._KeyedRecord(keys, record_of(draw, cls, rows, SCALARS), skip)
    for _ in range(draw(st.integers(0, 2))):
        value = draw(st.sampled_from([[value, 1.0], {"k": value, "z": [0.5, -0.0]}, (value,)]))
    return value


@settings(max_examples=300, deadline=None)
@given(keyed_payloads())
def test_fuzzed_keyed_records_match_the_reference(payload):
    assert outcome(eprio.emit_json, payload) == outcome(reference_emit_json, expanded_records(payload))
