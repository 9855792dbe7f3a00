import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eprkit
from eprkit import io as eprio
from eprkit import lab
from eprkit.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from eprkit.lab import MAX_ENTRY_MAGNITUDE, build_scenario
from eprkit.states import UncertaintyReport
from helpers import random_hermitian, random_state_vector

BUNDLED = ["pauli_epr.json", "pauli_uniform.json", "spin_one.json"]


def scenario_path(name: str) -> str:
    return str(files("eprkit.scenarios") / name)


def scenario_text(name: str) -> str:
    return (files("eprkit.scenarios") / name).read_text(encoding="utf-8")


def test_exit_codes_are_the_documented_contract():
    assert (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_INVARIANT) == (0, 1, 2, 3)
    from eprkit.cli import EXIT_IMPOSSIBLE

    assert EXIT_IMPOSSIBLE == 4


class TestVerify:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios_pass(self, name, capsys):
        assert main(["verify", scenario_path(name)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all invariants satisfied" in out
        assert "trace residual" in out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["verify", "/nonexistent/scenario.json"]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_garbage_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json at all", encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_PARSE

    def test_unknown_field_is_parse_error(self, tmp_path, capsys):
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["extra_knob"] = 1
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_PARSE
        assert "extra_knob" in capsys.readouterr().err

    def test_wrong_schema_version_is_parse_error(self, tmp_path):
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["schema_version"] = 99
        bad = tmp_path / "version.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_PARSE

    def test_non_hermitian_matrix_is_invariant_error(self, tmp_path, capsys):
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["matrix_a"][0][1] = [0.5, 0.0]  # breaks symmetry against [1][0]
        bad = tmp_path / "nonherm.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_INVARIANT
        assert "matrix_a" in capsys.readouterr().err

    def test_inconsistent_matrix_c_is_invariant_error(self, tmp_path, capsys):
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["matrix_c"][0][0] = [1e-3, 0.0]  # no longer [A, B]/(i alpha)
        bad = tmp_path / "badc.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_INVARIANT
        assert "matrix_c" in capsys.readouterr().err

    def test_near_zero_state_is_invariant_error(self, tmp_path):
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["state"] = [[1e-10, 0.0]] + [[0.0, 0.0]] * 3
        bad = tmp_path / "zerostate.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_INVARIANT

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize("field", ["matrix_b", "state", "alpha"])
    def test_non_finite_number_is_parse_error(self, command, literal, field, tmp_path, capsys):
        payload = json.loads(scenario_text("pauli_epr.json"))
        marker = 12345.5
        if field == "matrix_b":
            payload["matrix_b"][0][0] = [marker, 0.0]
        elif field == "state":
            payload["state"][0] = [marker, 0.0]
        else:
            payload["alpha"] = marker
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(payload).replace(str(marker), literal), encoding="utf-8")
        assert main([command, str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "Traceback" not in err

    @staticmethod
    def _scaled_pauli(tmp_path, xa: float, xb: float, keep_c: bool) -> str:
        # A = diag(xa, -xa), B = xb * Pauli X; the derived C is xa * xb * Pauli Y
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["matrix_a"] = [[[xa, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-xa, 0.0]]]
        payload["matrix_b"] = [[[0.0, 0.0], [xb, 0.0]], [[xb, 0.0], [0.0, 0.0]]]
        if not keep_c:
            del payload["matrix_c"]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
    @pytest.mark.parametrize("x, keep_c", [(1e160, True), (1e308, True), (1e100, False), (1e200, False)])
    def test_overflowing_magnitude_is_invariant_error(self, command, x, keep_c, tmp_path, capsys):
        path = self._scaled_pauli(tmp_path, x, x, keep_c)
        extra = ["--shots", "100"] if command == "sample" else []
        assert main([command, path, *extra]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "envelope" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
    @pytest.mark.parametrize("factor", [1e155, 1e200])
    def test_overflowing_state_norm_is_invariant_error(self, command, factor, tmp_path, capsys):
        payload = json.loads(scenario_text("spin_one.json"))
        payload["state"] = [[re * factor, im * factor] for re, im in payload["state"]]
        path = tmp_path / "huge_state.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        extra = ["--shots", "100"] if command == "sample" else []
        assert main([command, str(path), *extra]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "norm" in err
        assert "Traceback" not in err

    def test_inconsistent_matrix_c_at_large_scale_is_invariant_error(self, tmp_path, capsys):
        # the commutation tolerance is relative to |C|, so a 1e-6 relative error stays visible at |C| ~ 1e7
        payload = json.loads(eprio.scenario_to_json(_scaled_scenario(3, 1e7)))
        payload["matrix_c"] = [[[re * (1 + 1e-6), im * (1 + 1e-6)] for re, im in row] for row in payload["matrix_c"]]
        path = tmp_path / "badc.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_INVARIANT
        assert "matrix_c" in capsys.readouterr().err

    def test_entries_at_the_magnitude_envelope_analyze(self, tmp_path):
        x = MAX_ENTRY_MAGNITUDE
        path = self._scaled_pauli(tmp_path, x, 1.0, keep_c=False)  # A and C reach the bound
        out = tmp_path / "report.json"
        assert main(["analyze", path, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["analysis"]["per_sum"]["0"]["a1"]["mean"] == pytest.approx(0.6 * x)


class TestAnalyze:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_report_round_trips(self, name, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", scenario_path(name), "--out", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        payload = eprio.run_report_from_json(text)
        assert eprio.emit_json(payload) == text

    def test_worked_example_numbers(self, tmp_path):
        out = tmp_path / "report.json"
        main(["analyze", scenario_path("pauli_epr.json"), "--out", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        branch = payload["analysis"]["per_sum"]["0"]
        assert branch["a1"]["mean"] == pytest.approx(0.6, abs=1e-10)
        assert branch["a1"]["stdev"] == pytest.approx(0.8, abs=1e-10)
        chain = payload["analysis"]["chains"]["0,1"]
        assert chain["a2_predicted"] == pytest.approx(-1.0, abs=1e-10)
        assert payload["metadata"]["tool"] == "eprkit"

    def test_output_is_identical_across_runs(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        main(["analyze", scenario_path("spin_one.json"), "--out", str(first)])
        main(["analyze", scenario_path("spin_one.json"), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_writes_to_stdout_by_default(self, capsys):
        assert main(["analyze", scenario_path("pauli_epr.json")]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1

    def test_product_state_has_single_branch(self, tmp_path, capsys):
        demo = tmp_path / "product.json"
        main(["demo-pauli", "--amplitudes", "1,0,0,0,0,0,0,0", "--out", str(demo)])
        assert main(["analyze", str(demo)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["analysis"]["per_sum"]) == ["2"]

    def test_uniform_file_sum_distribution(self, capsys):
        assert main(["analyze", scenario_path("pauli_uniform.json")]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        probs = {entry["value"]: entry["probability"] for entry in payload["analysis"]["sum_spectrum"]}
        assert probs == pytest.approx({-2.0: 0.25, 0.0: 0.5, 2.0: 0.25}, abs=1e-10)

    def test_failed_uncertainty_audit_is_invariant_error(self, monkeypatch, capsys):
        # the bound is a theorem, so a failed audit is a defect to report, not a crash
        failed = UncertaintyReport(delta_a=0.0, delta_b=0.0, rhs=1.0, satisfied=False)
        monkeypatch.setattr(lab, "audit_uncertainty_from", lambda *args: failed)
        assert main(["analyze", scenario_path("pauli_epr.json")]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("epr: invariant violation: uncertainty audit failed")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestSample:
    def test_identical_seed_identical_bytes(self, tmp_path):
        args = ["sample", scenario_path("pauli_uniform.json"), "--shots", "2000", "--seed", "42"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_record_contents(self, tmp_path):
        out = tmp_path / "rec.json"
        main(["sample", scenario_path("pauli_uniform.json"), "--shots", "10000", "--seed", "4", "--out", str(out)])
        payload = eprio.run_report_from_json(out.read_text(encoding="utf-8"))
        sampling = payload["sampling"]
        assert sampling["seed"] == 4
        assert sum(sampling["counts"].values()) == 10000
        assert sampling["comparison"]["within_3sigma"] is True
        assert eprio.emit_json(payload) == out.read_text(encoding="utf-8")

    def test_single_shot_records_one_path(self, capsys):
        assert main(["sample", scenario_path("pauli_epr.json"), "--shots", "1", "--seed", "8"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["sampling"]["counts"].values()) == 1
        assert len(payload["sampling"]["counts"]) == 1

    def test_zero_shots_is_usage_error(self, capsys):
        code = main(["sample", scenario_path("pauli_epr.json"), "--shots", "0"])
        assert code == EXIT_USAGE

    def test_non_numeric_shots_is_usage_error(self):
        assert main(["sample", scenario_path("pauli_epr.json"), "--shots", "many"]) == EXIT_USAGE

    def test_oversized_seed_is_usage_error(self):
        code = main(
            ["sample", scenario_path("pauli_epr.json"), "--shots", "10", "--seed", str(2**64)]
        )
        assert code == EXIT_USAGE


class TestDemoPauli:
    def test_emits_verifiable_scenario(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        code = main(
            [
                "demo-pauli",
                "--amplitudes",
                "0,0,0.894427191,0,0.4472135955,0,0,0",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert main(["verify", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["analyze", str(out)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["per_sum"]["0"]["a1"]["mean"] == pytest.approx(0.6, abs=1e-9)

    def test_wrong_amplitude_count(self):
        assert main(["demo-pauli", "--amplitudes", "1,0,0,0"]) == EXIT_USAGE

    def test_non_numeric_amplitudes(self):
        assert main(["demo-pauli", "--amplitudes", "a,b,c,d,e,f,g,h"]) == EXIT_USAGE

    def test_zero_vector_rejected(self):
        assert main(["demo-pauli", "--amplitudes", "0,0,0,0,0,0,0,0"]) == EXIT_USAGE


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["verify", scenario_path("pauli_epr.json"), "--frobnicate"]) == EXIT_USAGE


def test_report_parser_rejects_unknown_sections(tmp_path):
    from eprkit.errors import ScenarioFormatError

    out = tmp_path / "report.json"
    main(["analyze", scenario_path("pauli_epr.json"), "--out", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8"))
    payload["debug"] = {}
    with pytest.raises(ScenarioFormatError):
        eprio.run_report_from_json(json.dumps(payload))


def test_report_parser_rejects_non_finite_numbers(tmp_path):
    from eprkit.errors import ScenarioFormatError

    out = tmp_path / "report.json"
    main(["analyze", scenario_path("pauli_epr.json"), "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert '"probability": 1.0' in text
    with pytest.raises(ScenarioFormatError):
        eprio.run_report_from_json(text.replace('"probability": 1.0', '"probability": NaN', 1))


def _scaled_scenario(seed: int, scale: float):
    """A = diag(-1, 0, 1) * scale with a random Hermitian B, so the derived C grows with scale."""
    rng = np.random.default_rng(seed)
    b = random_hermitian(rng, 3)
    return build_scenario(f"scaled-{scale:g}", np.diag([-1.0, 0.0, 1.0]) * scale, b, random_state_vector(rng, 9))


def test_scenario_json_round_trip():
    from eprkit.lab import build_pauli_scenario

    # the large scales write C rounded to 15 digits with |C| ~ 1e7 and 1e8; reading it back must not fail
    for sc in (
        build_pauli_scenario([0.1 + 0.2j, 0.3, -0.4j, 0.5], label="round-trip"),
        _scaled_scenario(3, 1e7),
        _scaled_scenario(3, 1e8),
    ):
        text = eprio.scenario_to_json(sc)
        back = eprio.scenario_from_json(text)
        assert back.label == sc.label
        assert back.alpha == sc.alpha
        assert np.allclose(back.obs_a.matrix, sc.obs_a.matrix)
        assert np.allclose(back.obs_c.matrix, sc.obs_c.matrix)
        assert back.initial_state.equals_up_to_phase(sc.initial_state, tol=1e-12)
        assert eprio.scenario_to_json(back) == text


def test_degenerate_factor_scenario_verifies_but_cannot_analyze(tmp_path, capsys):
    # file invariants hold (A = I is Hermitian, C = 0 is consistent), so verify
    # passes; conditioning needs distinct factor outcomes, so analyze refuses
    sc = build_scenario("degenerate", np.eye(2), np.diag([1.0, 2.0]), [0.5, 0.5, 0.5, 0.5])
    path = tmp_path / "degenerate.json"
    path.write_text(eprio.scenario_to_json(sc), encoding="utf-8")
    assert main(["verify", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", str(path)]) == EXIT_INVARIANT
    assert "repeated eigenvalues" in capsys.readouterr().err


def test_console_script_entry_point():
    # the child imports the same eprkit as this process, installed or not
    src = str(Path(eprkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "eprkit.cli", "verify", scenario_path("pauli_epr.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "all invariants satisfied" in result.stdout


_FIELDS = ["schema_version", "label", "factor_dim", "matrix_a", "matrix_b", "matrix_c", "alpha", "state"]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from([[], {}, [[0, 0]], [[[0, 0]]]]),
)
_MARKER = 12345.5


@st.composite
def _mutated_scenario(draw) -> str:
    """A bundled scenario file with one mutation: type, shape, non-finite, magnitude, degeneracy or fields."""
    payload = json.loads(scenario_text(draw(st.sampled_from(BUNDLED))))
    n = payload["factor_dim"]
    kinds = ["type", "shape", "nonfinite", "state magnitude", "matrix magnitude", "degenerate", "missing", "extra"]
    kind = draw(st.sampled_from(kinds))
    literal = None
    if kind == "type":
        payload[draw(st.sampled_from(_FIELDS))] = draw(_JUNK)
    elif kind == "shape":
        entries = payload[draw(st.sampled_from(["matrix_a", "matrix_b", "matrix_c", "state"]))]
        op = draw(st.sampled_from(["drop", "repeat", "widen"]))
        if op == "drop":
            entries.pop()
        elif op == "repeat":
            entries.append(entries[0])
        else:
            cell = entries[0] if len(entries[0]) == 2 and not isinstance(entries[0][0], list) else entries[0][0]
            cell.append(0.0)
    elif kind == "nonfinite":
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))
        field = draw(st.sampled_from(["matrix_a", "matrix_b", "matrix_c", "state", "alpha"]))
        i, j, part = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
        if field == "alpha":
            payload["alpha"] = _MARKER
        elif field == "state":
            payload["state"][i * n + j][part] = _MARKER
        else:
            payload[field][i][j][part] = _MARKER
    elif kind.endswith("magnitude"):
        factor = 10.0 ** draw(st.integers(-300, 308))
        fields = ["state"]
        if kind == "matrix magnitude":
            fields = draw(st.sampled_from([["matrix_a"], ["matrix_b"], ["matrix_a", "matrix_b"]]))
            if draw(st.booleans()):
                del payload["matrix_c"]  # derive C from the scaled matrices
        for field in fields:
            payload[field] = json.loads(json.dumps(payload[field]), parse_float=lambda x: float(x) * factor)
    elif kind == "degenerate":
        value = draw(st.sampled_from([0.0, 1.0, -2.5]))
        diagonal = [value, value] + [value + k for k in range(1, n - 1)]
        payload["matrix_a"] = [[[diagonal[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            del payload["matrix_c"]
    elif kind == "missing":
        del payload[draw(st.sampled_from(_FIELDS))]
    else:
        payload[draw(st.text(min_size=1, max_size=5))] = draw(_JUNK)
    text = json.dumps(payload)
    return text if literal is None else text.replace(str(_MARKER), literal)


@given(text=_mutated_scenario())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_exit_code_contract_under_fuzzed_scenarios(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["verify", str(path)], ["analyze", str(path)], ["sample", str(path), "--shots", "50"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue()
