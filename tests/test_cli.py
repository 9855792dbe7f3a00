import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eprkit
from eprkit import io as eprio
from eprkit import _kernels, cli, composite, conditional, lab, linalg, states
from eprkit.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from eprkit.lab import MAX_ENTRY_MAGNITUDE, build_scenario
from helpers import random_hermitian, random_state_vector, reference_may_exceed_float_range

BUNDLED = ["pauli_epr.json", "pauli_uniform.json", "spin_one.json"]
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


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

    @pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "too-deep"])
    def test_undecodable_file_is_one_line_parse_error(self, command, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = [command, str(bad)] + (["--shots", "10"] if command == "sample" else [])
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("epr: parse error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
    def test_lone_surrogate_label_is_one_line_parse_error(self, command, tmp_path, capsys):
        # valid JSON, but no output encoding can hold the label
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["label"] = "\ud800"
        bad = tmp_path / "surrogate.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        argv = [command, str(bad)] + (["--shots", "10"] if command == "sample" else [])
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("epr: parse error: label") and captured.err.count("\n") == 1

    def test_label_stdout_cannot_encode_is_escaped(self, tmp_path):
        # analyze and sample write such a label as a JSON escape; verify writes a backslash escape
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["label"] = "\u00e9-label"
        path = tmp_path / "accented.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        src = str(Path(eprkit.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONIOENCODING": "ascii"}
        result = subprocess.run(
            [sys.executable, "-m", "eprkit.cli", "verify", str(path)], capture_output=True, text=True, env=env
        )
        assert result.returncode == EXIT_OK
        assert "Traceback" not in result.stderr
        assert result.stdout.startswith("scenario: \\xe9-label (factor_dim=2, alpha=2)\n")

    def test_label_cannot_forge_verify_lines(self, tmp_path, capsys):
        # verify's report is line-oriented: a newline in the label is written as a backslash escape
        assert main(["verify", scenario_path("pauli_epr.json")]) == EXIT_OK
        normal = capsys.readouterr().out.splitlines()
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["label"] = "x\nall invariants satisfied\n"
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("all invariants satisfied") == 1
        assert len(lines) == len(normal)
        assert lines[0] == "scenario: x\\x0aall invariants satisfied\\x0a (factor_dim=2, alpha=2)"
        assert lines[1:] == normal[1:]

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

    @pytest.mark.parametrize(
        "literal",
        ["1e308", "1.8e308", "1E+309", "1e+0000400", "-1e400", "1e-400", "9" * 209, "9" * 210 + "e98",
         "1" + "0" * 250 + "e60", "NaN"],
        ids=["1e308", "1.8e308", "1E+309", "1e+0000400", "-1e400", "1e-400", "209-digits", "210-digits-e98",
             "251-digits-e60", "NaN"],
    )
    @pytest.mark.parametrize("field", ["alpha", "label", "unknown"])
    def test_json_load_matches_a_parse_through_the_number_hooks(self, literal, field):
        # numbers parse natively only in text that cannot hold one beyond the float range
        payload = json.loads(scenario_text("pauli_epr.json"))
        marker = 12345.5
        if field == "unknown":
            payload["extra"] = [marker]
        else:
            payload[field] = marker
        text = json.dumps(payload).replace(str(marker), literal)

        def outcome(load):
            try:
                return repr(load(text))
            except eprio.ScenarioFormatError as exc:
                return str(exc)

        def hooked(text):
            try:
                return json.loads(
                    text, parse_constant=eprio._reject_constant, parse_float=eprio._finite_float, parse_int=eprio._finite_int
                )
            except ValueError as exc:
                raise eprio.ScenarioFormatError(f"invalid JSON: {exc}") from exc

        assert outcome(eprio._load_json) == outcome(hooked)

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            ("matrix_a", lambda m: m[0].__setitem__(1, [True, 0.0]), "matrix_a[0][1] must be a [re, im] pair of numbers"),
            ("matrix_b", lambda m: m[1].__setitem__(0, ["0.5", 0.0]), "matrix_b[1][0] must be a [re, im] pair of numbers"),
            ("state", lambda m: m.__setitem__(2, [0.5]), "state[2] must be a [re, im] pair of numbers"),
            ("matrix_c", lambda m: m[1].pop(), "matrix_c row 1 must have 2 entries"),
            ("state", lambda m: m.pop(), "state must have 4 amplitude pairs"),
            # the first bad cell in row order is named, before a ragged row further down
            (
                "matrix_a",
                lambda m: (m[0].__setitem__(1, [0.0, False]), m[1].pop()),
                "matrix_a[0][1] must be a [re, im] pair of numbers",
            ),
        ],
        ids=["bool", "string", "short-pair", "ragged-row", "short-state", "first-bad-cell"],
    )
    def test_malformed_cell_names_itself(self, field, edit, message, tmp_path, capsys):
        payload = json.loads(scenario_text("pauli_epr.json"))
        edit(payload[field])
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"epr: parse error: {message}\n"

    @pytest.mark.parametrize("factor_dim", [2.5, 2.0, True, "2", None, 0, -2])
    def test_factor_dim_that_is_no_positive_integer_is_parse_error(self, factor_dim, tmp_path, capsys):
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["factor_dim"] = factor_dim
        bad = tmp_path / "factor_dim.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"epr: parse error: factor_dim must be an integer in [1, inf], got {factor_dim!r}\n"

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

    @pytest.mark.parametrize(
        "keep_c, named",
        [(False, "C = [A, B]/(i*alpha) has an entry"), (True, "matrix_c has an entry")],
    )
    def test_commutator_beyond_the_envelope_names_its_source(self, keep_c, named, tmp_path, capsys):
        # A = diag(1e150, -1e150) and B = X sit at the envelope, C = 2e150 Y beyond it; a file
        # without matrix_c was told "matrix_c has an entry", naming a field it does not have
        path = Path(self._scaled_pauli(tmp_path, MAX_ENTRY_MAGNITUDE, 1.0, keep_c))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["alpha"] = 1.0
        if keep_c:
            payload["matrix_c"] = [[[0.0, 0.0], [0.0, -2e150]], [[0.0, 2e150], [0.0, 0.0]]]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"epr: invariant violation: {named} of magnitude 2.000e+150, beyond the envelope of 1e+150\n"
        )

    @pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
    @pytest.mark.parametrize("keep_c", [True, False])
    def test_subnormal_alpha_is_invariant_error(self, command, keep_c, tmp_path, capsys):
        # [A, B] / (i * 5e-324) overflows, with or without a matrix_c to compare it with
        payload = json.loads(scenario_text("pauli_epr.json"))
        payload["alpha"] = 5e-324
        if not keep_c:
            del payload["matrix_c"]
        path = tmp_path / "subnormal_alpha.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        extra = ["--shots", "100"] if command == "sample" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, str(path), *extra]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("epr: invariant violation: ") and err.count("\n") == 1
        assert "alpha" in err

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

    @pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
    def test_factor_dim_beyond_the_envelope_is_invariant_error(self, command, tmp_path, capsys):
        # N = 9 is the smallest factor whose composite, 81, exceeds the envelope of 64
        n = 9
        rng = np.random.default_rng(9)
        pairs = lambda values: [[float(z.real), float(z.imag)] for z in values]  # noqa: E731
        payload = {
            "schema_version": 1,
            "label": "n9",
            "factor_dim": n,
            "matrix_a": [pairs(row) for row in np.diag(np.arange(n, dtype=complex))],
            "matrix_b": [pairs(row) for row in random_hermitian(rng, n)],
            "alpha": 1.0,
            "state": pairs(random_state_vector(rng, n * n)),
        }
        path = tmp_path / "n9.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        extra = ["--shots", "100"] if command == "sample" else []
        assert main([command, str(path), *extra]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "epr: invariant violation: factor dim 9 gives composite dim 81, beyond the envelope of 64\n"


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
        monkeypatch.setattr(lab, "uncertainty_satisfied", lambda delta_a, *args: np.zeros(len(delta_a), dtype=bool))
        assert main(["analyze", scenario_path("pauli_epr.json")]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("epr: invariant violation: uncertainty audit failed")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "failing_call, message",
        [
            (0, "uncertainty audit failed in branch s="),  # the first factor's audits
            (1, "uncertainty audit failed in branch s="),  # the second factor's audits
            (2, "uncertainty audit failed after chain (s="),  # the chains' audits
        ],
        ids=["slot-1", "slot-2", "chains"],
    )
    def test_one_failed_uncertainty_audit_is_invariant_error(self, failing_call, message, monkeypatch, capsys):
        # one failed audit of one slot is enough; the audits run slot 1, then slot 2, then the chains
        calls = []
        satisfied = lab.uncertainty_satisfied

        def audit(delta_a, *args):
            calls.append(None)
            return satisfied(delta_a, *args) & (len(calls) - 1 != failing_call)

        monkeypatch.setattr(lab, "uncertainty_satisfied", audit)
        assert main(["analyze", scenario_path("pauli_epr.json")]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"epr: invariant violation: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_scenario_with_large_c_passes_its_audits(self, tmp_path, capsys):
        # A and B of order 1e3 give |C| ~ 1e6, where a vanishing bound rounds to about 1e-10: verify
        # passed and analyze exited 3 with "uncertainty audit failed" while the slack was absolute
        rng = np.random.default_rng(0)
        a, b = random_hermitian(rng, 3) * 1e3, random_hermitian(rng, 3) * 1e3
        path = tmp_path / "scaled.json"
        path.write_text(eprio.scenario_to_json(build_scenario("scaled", a, b, random_state_vector(rng, 9))))
        assert main(["verify", str(path)]) == EXIT_OK
        assert main(["analyze", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "seam, distort, message",
        [
            # every measurement of B and C doubled: none sums to 1
            ("project_slot", lambda measured: (2.0 * measured[0], measured[1]), "probabilities sum to"),
            # every kept pair's weight W[n, m] / p(s_k) doubled with p(s_k) kept: the A(1) and A(2) rows sum to 2
            ("_branch_table", lambda table: replace(table, weights=2.0 * table.weights), "A(1) probabilities sum to"),
            # the chains' A(2) table shifted by one outcome: still normalized, but the point mass moves off a_m
            ("_chain_a2_probabilities", lambda table: np.roll(table, 1, axis=-1), "point mass"),
        ],
        ids=["sum-to-one", "a-sum-to-one", "point-mass"],
    )
    def test_failed_walk_check_is_invariant_error(self, monkeypatch, capsys, seam, distort, message):
        # the walk's own checks fail as invariant violations, not as tracebacks
        sc = eprio.scenario_from_json(scenario_text("pauli_epr.json"))
        original = getattr(lab, seam)
        monkeypatch.setattr(lab, seam, lambda *args: distort(original(*args)))
        monkeypatch.setattr(cli, "_load_scenario", lambda path: sc)
        assert main(["analyze", scenario_path("pauli_epr.json")]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("epr: invariant violation: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", scenario_path("pauli_epr.json")],
            ["sample", scenario_path("pauli_epr.json"), "--shots", "100"],
            ["demo-pauli", "--amplitudes", "1,0,0,0,0,0,0,0"],
        ],
        ids=["analyze", "sample", "demo-pauli"],
    )
    def test_out_to_a_missing_directory_is_usage_error(self, argv, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(argv + ["--out", str(target)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"epr: error: cannot write {target}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not target.exists()


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

    @pytest.mark.parametrize("shots", [1, 10_007])
    @pytest.mark.parametrize("state", ["n1", "width-1"])
    def test_scenarios_with_a_certain_level_sample(self, state, shots, tmp_path, capsys):
        # N = 1 leaves nothing to draw; sum_n c_n |a_n a_n> on a generic A gives every branch one chain,
        # so only the sum is drawn
        rng = np.random.default_rng(11)
        if state == "n1":
            sc = build_scenario("n1", np.array([[0.7]]), np.array([[-0.2]]), np.array([1.0]))
        else:
            a = random_hermitian(rng, 3)
            v = np.linalg.eigh(a)[1]
            c = random_state_vector(rng, 3)
            sc = build_scenario("width-1", a, random_hermitian(rng, 3), sum(c[n] * np.kron(v[:, n], v[:, n]) for n in range(3)))
        path = tmp_path / "scenario.json"
        path.write_text(eprio.scenario_to_json(sc), encoding="utf-8")
        assert main(["sample", str(path), "--shots", str(shots), "--seed", "5"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = eprio.run_report_from_json(captured.out)
        assert sum(payload["sampling"]["counts"].values()) == shots
        chains = payload["analysis"]["chains"]
        assert len(chains) == (1 if state == "n1" else 3)
        assert {key.rsplit(",", 1)[0] for key in payload["sampling"]["counts"]} <= set(chains)

    def test_single_shot_records_one_path(self, capsys):
        assert main(["sample", scenario_path("pauli_epr.json"), "--shots", "1", "--seed", "8"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["sampling"]["counts"].values()) == 1
        assert len(payload["sampling"]["counts"]) == 1

    @pytest.mark.parametrize(
        "amplitudes, seed, draw, bits",
        [
            # p(s = -2) is about 1e-13, below ZERO_PROB_THRESHOLD, and the first sum draw is 0, inside its cdf step
            ("0,0,0.894427190999916,0,0.447213595499958,0,3.16227766016838e-07,0", 7046029254386353131, 1, 0),
            # p(a1 = -1 | s = 0) is 0.9999999999999998, and the first conditional draw is 2^53 - 1, past it
            ("0,0,0,0,-0.6705492567724737,-0.7797562949869209,0,0", 10604588701194827158, 2, 2**53 - 1),
        ],
        ids=["unreported-sum-line", "conditional-cdf-tail"],
    )
    def test_draws_land_only_on_reported_chains(self, amplitudes, seed, draw, bits, tmp_path, capsys):
        # splitmix64 is a bijection, so the seed puts the draw on the chosen 53-bit integer
        assert _kernels._draw_bits(seed, np.array([draw], dtype=np.uint64)).tolist() == [bits]
        path = tmp_path / "scenario.json"
        assert main(["demo-pauli", "--amplitudes", amplitudes, "--out", str(path)]) == EXIT_OK
        assert main(["sample", str(path), "--shots", "10", "--seed", str(seed)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = eprio.run_report_from_json(captured.out)
        counts = payload["sampling"]["counts"]
        assert sum(counts.values()) == 10
        assert {key.rsplit(",", 1)[0] for key in counts} <= set(payload["analysis"]["chains"])
        assert payload["sampling"]["comparison"]["within_3sigma"] is True

    def test_path_probability_rounding_above_one_is_compared(self, tmp_path, capsys):
        # the one path has p(s) p(a1 | s) = 1.0000000000000002, where p (1 - p) has no square root
        path = tmp_path / "scenario.json"
        amplitudes = "0,0,0,0,1.7997073827209,1.14416587203723,0,0"
        assert main(["demo-pauli", "--amplitudes", amplitudes, "--out", str(path)]) == EXIT_OK
        report = eprio.scenario_from_json(path.read_text(encoding="utf-8")).analysis
        assert report.per_sum[0].probability * report.chains[0].conditional_probability > 1.0
        assert main(["sample", str(path), "--shots", "1000", "--seed", "1"]) == EXIT_OK
        sampling = json.loads(capsys.readouterr().out)["sampling"]
        assert sampling["counts"] == {"0,-1,1": 1000}
        assert sampling["comparison"]["within_3sigma"] is True
        assert sampling["comparison"]["paths"]["0,-1,1"]["analytic"] == 1.0

    def test_zero_shots_is_usage_error(self, capsys):
        code = main(["sample", scenario_path("pauli_epr.json"), "--shots", "0"])
        assert code == EXIT_USAGE

    def test_non_numeric_shots_is_usage_error(self):
        assert main(["sample", scenario_path("pauli_epr.json"), "--shots", "many"]) == EXIT_USAGE

    @pytest.mark.parametrize("option", ["--shots", "--seed"])
    @pytest.mark.parametrize("text", ["1_0", " 10 ", "\u0661\u0660", "+5", "007", "-0", "1e3"])
    def test_integer_not_in_canonical_decimal_is_usage_error(self, option, text, capsys):
        # int() read the first six as 10, 10, 10, 5, 7 and 0, so a report could name a seed spelt
        # differently from the one given; the file is not read, so it need not exist
        argv = {"--shots": "10", "--seed": "3"} | {option: text}
        assert main(["sample", "missing.json", *(x for pair in argv.items() for x in pair)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"epr: error: {option} must be an integer in [")
        assert captured.err.endswith(f"], got {text!r}\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--shots", "--seed"])
    def test_integer_past_the_digit_limit_is_usage_error(self, option, capsys):
        # int() refused the text with its own "Exceeds the limit (4300 digits)" message
        argv = {"--shots": "10", "--seed": "3"} | {option: "1" * 5000}
        assert main(["sample", "missing.json", *(x for pair in argv.items() for x in pair)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        bounds = {"--shots": f"[1, {lab.MAX_SHOTS}]", "--seed": f"[0, {lab.MAX_SEED}]"}[option]
        assert captured.err == f"epr: error: {option} must be an integer in {bounds}, got '{'1' * 36}...\n"

    def test_shots_beyond_max_shots_is_usage_error(self, capsys):
        # the kernel would walk the shots for hours; the file is not read, so it need not exist
        assert main(["sample", "missing.json", "--shots", str(lab.MAX_SHOTS + 1)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"epr: error: --shots must be an integer in [1, {lab.MAX_SHOTS}], got {lab.MAX_SHOTS + 1}\n"

    @pytest.mark.parametrize("shots, seed", [("1", "0"), ("10", "7"), ("997", "10"), ("1000", str(lab.MAX_SEED))])
    def test_report_prints_the_integer_text_given(self, shots, seed, capsys):
        assert main(["sample", scenario_path("pauli_epr.json"), "--shots", shots, "--seed", seed]) == EXIT_OK
        out = capsys.readouterr().out
        assert f'\n    "seed": {seed},\n    "shots": {shots},\n' in out

    @given(
        option=st.sampled_from(["--shots", "--seed"]),
        n=st.integers(0, 10**6),
        spell=st.sampled_from(
            [str, "+{}".format, "0{}".format, " {} ".format, "{:_}".format, lambda n: str(n).translate(_ARABIC_INDIC)]
        ),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_an_accepted_integer_text_is_the_one_reported(self, option, n, spell):
        # "+5", "007", " 10 ", "1_000" and Arabic-Indic digits were read by int() and reported respelt
        text = spell(n)
        argv = {"--shots": "10", "--seed": "3"} | {option: text}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sample", scenario_path("pauli_epr.json"), *(x for pair in argv.items() for x in pair)])
        if code == EXIT_OK:
            assert f'\n    "{option[2:]}": {text},\n' in out.getvalue()
        else:
            assert code == EXIT_USAGE and out.getvalue() == "" and err.getvalue().count("\n") == 1

    def test_oversized_seed_is_usage_error(self):
        code = main(
            ["sample", scenario_path("pauli_epr.json"), "--shots", "10", "--seed", str(2**64)]
        )
        assert code == EXIT_USAGE


@pytest.mark.parametrize("name", BUNDLED)
def test_no_command_runs_the_dense_route(name, monkeypatch, capsys):
    # verify, analyze and sample work on N x N matrices: none reaches an N^2 x N^2 operator or projector
    dense = {
        "lift": composite,
        "sum_observable": composite,
        "tensor_product": linalg,
        "project_outcomes": states,
        "post_measurement_state": composite,
    }
    for attr, home in dense.items():
        original = getattr(home, attr)

        def refuse(*args, _attr=attr, **kwargs):
            raise AssertionError(f"{_attr} called")

        for module in (linalg, states, composite, conditional, lab, eprio, cli):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, refuse)
    path = scenario_path(name)
    for argv in (["verify", path], ["analyze", path], ["sample", path, "--shots", "1000"]):
        assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", [*BUNDLED, "generic-8"])
def test_analyze_and_sample_build_no_per_record_report_object(name, tmp_path, monkeypatch, capsys):
    # the report holds its branches and its chains in one record each, a list in every leaf;
    # per_sum and chains build one record per row only when read
    if name in BUNDLED:
        path = scenario_path(name)
    else:
        rng = np.random.default_rng(8)
        sc = build_scenario(name, random_hermitian(rng, 8), random_hermitian(rng, 8), random_state_vector(rng, 64))
        path = str(tmp_path / f"{name}.json")
        Path(path).write_text(eprio.scenario_to_json(sc), encoding="utf-8")
    built = Counter()
    for cls in (lab.SumBranchReport, lab.ChainReport, conditional.PredictionSummary, conditional.SumConstraintReport,
                states.UncertaintyReport):
        def spy(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls.__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    once = Counter(SumBranchReport=1, ChainReport=1, PredictionSummary=6, SumConstraintReport=1, UncertaintyReport=3)
    for argv in (["analyze", path], ["sample", path, "--shots", "1000"]):
        built.clear()
        assert main(argv) == EXIT_OK
        assert built == once, argv
    capsys.readouterr()
    report = eprio.scenario_from_json(Path(path).read_text(encoding="utf-8")).analysis
    built.clear()
    assert len(report.per_sum) and len(report.chains) > 1
    assert built["SumBranchReport"] == len(report.per_sum) and built["ChainReport"] == len(report.chains)


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

    def test_label_its_reader_rejects_is_usage_error(self, tmp_path, capsys):
        # a label byte that is not UTF-8 reaches argv as a lone surrogate, which scenario_from_json rejects
        out = tmp_path / "surrogate.json"
        argv = ["demo-pauli", "--amplitudes", "1,0,0,0,0,0,0,0", "--label", "\udcff", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "epr: error: label is not valid Unicode text: "
            "'utf-8' codec can't encode character '\\udcff' in position 0: surrogates not allowed\n"
        )
        assert not out.exists()


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["verify", scenario_path("pauli_epr.json"), "--frobnicate"]) == EXIT_USAGE

    def test_consecutive_calls_share_one_parser_and_keep_their_outputs(self, capsys):
        cli._build_parser.cache_clear()
        path = scenario_path("pauli_epr.json")
        argvs = [
            ["verify", path],
            ["analyze", path],
            ["sample", path, "--shots", "1000", "--seed", "5"],
            ["sample", path, "--seed", "5"],  # --shots missing: a usage error
        ]
        runs = []
        for _ in range(2):
            for argv in argvs:
                code = main(argv)
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
        assert cli._build_parser.cache_info().misses == 1
        # the second round repeats the first byte for byte, after the usage error
        assert runs[:4] == runs[4:]
        (verify, analyze, sample, usage) = runs[:4]
        assert verify[0] == EXIT_OK and verify[1].endswith("all invariants satisfied\n") and verify[2] == ""
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "analyze-pauli_epr.json"
        assert analyze == (EXIT_OK, golden.read_text(encoding="utf-8"), "")
        assert sample[0] == EXIT_OK and sample[2] == ""
        assert sum(json.loads(sample[1])["sampling"]["counts"].values()) == 1000
        assert usage[0] == EXIT_USAGE and usage[1] == ""
        assert usage[2].startswith("usage: epr sample") and "--shots" in usage[2].splitlines()[-1]


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


def test_report_parser_rejects_too_deep_nesting():
    from eprkit.errors import ScenarioFormatError

    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        eprio.run_report_from_json("[" * 100000)


def _repeating(text: str, field: str) -> str:
    """A JSON object's text with ``field`` given a second time, last, with the same value."""
    return text.rstrip().removesuffix("}") + f', "{field}": ' + json.dumps(json.loads(text)[field]) + "}"


@pytest.mark.parametrize("field", ["label", "matrix_a"])
@pytest.mark.parametrize("command", [["verify"], ["analyze"], ["sample", "--shots", "10"]])
def test_repeated_scenario_field_is_parse_error(field, command, tmp_path, capsys):
    bad = tmp_path / "repeated.json"
    bad.write_text(_repeating(scenario_text("pauli_epr.json"), field), encoding="utf-8")
    assert main([command[0], str(bad), *command[1:]]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"field '{field}' is given more than once" in captured.err
    assert "Traceback" not in captured.err
    with pytest.raises(eprio.ScenarioFormatError, match=f"field '{field}' is given more than once"):
        eprio.run_report_from_json(bad.read_text(encoding="utf-8"))


def test_report_parser_rejects_repeated_fields(tmp_path):
    from eprkit.errors import ScenarioFormatError

    out = tmp_path / "report.json"
    main(["analyze", scenario_path("pauli_epr.json"), "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="field 'label' is given more than once"):
        eprio.run_report_from_json(_repeating(text, "label"))
    # a repeat inside a nested object is refused too
    assert '"probability": 1.0' in text
    with pytest.raises(ScenarioFormatError, match="field 'probability' is given more than once"):
        eprio.run_report_from_json(text.replace('"probability": 1.0', '"probability": 1.0, "probability": 0.5', 1))


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
        assert abs(back.initial_state.overlap(sc.initial_state)) >= 1 - 1e-12
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


def test_verify_reads_a_degenerate_a_in_the_basis_of_its_one_solve(tmp_path, capsys, monkeypatch):
    # the diagonal of C is read in phase_fix(eigh(A)) for any A, and A's own solve already holds that basis
    rng = np.random.default_rng(48)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    degenerate = u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T
    sc = build_scenario("degenerate-a", degenerate, random_hermitian(rng, 3), random_state_vector(rng, 9))
    path = tmp_path / "degenerate_a.json"
    path.write_text(eprio.scenario_to_json(sc), encoding="utf-8")
    loaded = eprio.scenario_from_json(path.read_text(encoding="utf-8"))
    a, b = loaded.obs_a.matrix, loaded.obs_b.matrix
    vectors = linalg.phase_fix(np.linalg.eigh(a)[1])
    diag = np.einsum("ij,jk,ki->i", vectors.conj().T, linalg.extract_c(a, b, loaded.alpha), vectors)
    expected = f"  max |<a|C|a>| in A eigenbasis:   {float(np.abs(diag).max()):.3e}"

    solved = []
    eigh = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        solved.append(np.array(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert main(["verify", str(path)]) == EXIT_OK
    assert expected in capsys.readouterr().out.splitlines()
    assert sum(np.array_equal(matrix, a) for matrix in solved) == 1


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


# epr analyze and then epr sample in one fresh process, each run as ``python -m eprkit.cli`` runs it
_COLD_RUNS = """
import contextlib, io, runpy, sys
path, codes = sys.argv[1], []
for args in (["analyze", path], ["sample", path, "--shots", "10000"]):
    sys.argv = ["epr", *args]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("eprkit.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes.append(exc.code)
print(codes, "numpy.ma" in sys.modules)
"""


def test_cold_analyze_and_sample_import_no_masked_arrays():
    # numpy 2.4 imports numpy.ma on the first np.unique call, which adds about 15 ms and 0.7 MB to a fresh epr
    src = str(Path(eprkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _COLD_RUNS, scenario_path("spin_one.json")], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0] False\n"


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


SCAN_PIECES = st.one_of(
    st.text(alphabet="0123456789eE+-.,[]{}\" ", max_size=12),
    st.text(max_size=6),  # any code point but a surrogate: non-ASCII text and control characters
    st.sampled_from(["e000", "E+000", "e+00", "e00", "e-000", "1e400", "2E-400", "\\u00e9", "\\ud800", "é", "中", "\ud800", "\udcff"]),
    st.integers(190, 260).map(lambda k: "9" * k),
    st.integers(190, 260).map(lambda k: "1" + "0" * k + "e5"),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(SCAN_PIECES, max_size=12).map("".join))
@example("é" * 100 + "1e+400")
@example("\ud8001" + "9" * 199 + "é")
@example("label \\u00e9: 2E" + "0" * 3)
def test_byte_scan_gives_every_text_the_hooks_of_the_str_scan(text):
    # the UTF-8 bytes, raw surrogates passed through, hold a shape exactly when the str does
    assert eprio._may_exceed_float_range(text) == reference_may_exceed_float_range(text)


@pytest.mark.parametrize("command", ["verify", "analyze", "sample"])
def test_raw_lone_surrogate_label_is_one_line_parse_error(command, tmp_path, capsys):
    # a raw surrogate, not an escape: scenario_from_json refuses the label, and a file holding its
    # surrogatepass bytes is no UTF-8 text; neither path ends in a traceback
    payload = json.loads(scenario_text("pauli_epr.json"))
    payload["label"] = "\ud800"
    text = json.dumps(payload, ensure_ascii=False)
    assert "\ud800" in text
    with pytest.raises(eprio.ScenarioFormatError, match="^label is not valid Unicode text"):
        eprio.scenario_from_json(text)
    bad = tmp_path / "raw-surrogate.json"
    bad.write_bytes(text.encode("utf-8", "surrogatepass"))
    argv = [command, str(bad)] + (["--shots", "10"] if command == "sample" else [])
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("epr: parse error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("keep_c", [True, False], ids=["matrix_c", "derived-c"])
@pytest.mark.parametrize("command", [None, "verify", "analyze"])
def test_each_input_matrix_is_checked_hermitian_once(keep_c, command, tmp_path, monkeypatch, capsys):
    # A, B and C (given or derived) are checked when their observables are built, and never again:
    # not by the parser, not by the commutator of the residual and not by verify's theorem check
    payload = json.loads(scenario_text("spin_one.json"))
    if not keep_c:
        del payload["matrix_c"]
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    checked = []
    original = linalg._within_hermiticity
    monkeypatch.setattr(linalg, "_within_hermiticity", lambda a: checked.append(a.shape) or original(a))
    if command is None:
        eprio.scenario_from_json(path.read_text(encoding="utf-8")).commutation_residual
    else:
        assert main([command, str(path)]) == EXIT_OK
    assert checked == [(3, 3)] * 3


@pytest.mark.parametrize(
    "faults, named",
    [
        (["matrix_a", "matrix_b"], "matrix_a"),
        (["matrix_b", "matrix_c"], "matrix_b"),
        (["matrix_c", "state"], "matrix_c"),
        (["matrix_c", "inconsistent"], "matrix_c"),
        (["matrix_b", "no_c"], "matrix_b"),
    ],
)
def test_first_non_hermitian_field_is_named_before_later_faults(faults, named, tmp_path, capsys):
    # the field order of the parser's checks: A, then B, then C, before the state and the commutator
    payload = json.loads(scenario_text("pauli_epr.json"))
    for fault in faults:
        if fault.startswith("matrix_"):
            payload[fault][0][1] = [0.5, 0.25]
        elif fault == "state":
            payload["state"] = [[1e-10, 0.0]] + [[0.0, 0.0]] * 3
        elif fault == "inconsistent":
            payload["matrix_c"][1][1] = [1e-3, 0.0]
        else:
            del payload["matrix_c"]
    bad = tmp_path / "faults.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", str(bad)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == f"epr: invariant violation: {named} is not Hermitian within tolerance\n"


@pytest.mark.parametrize("fault", ["matrix_b", "matrix_c", None])
def test_file_beyond_max_dim_names_its_non_hermitian_field_first(fault, tmp_path, capsys):
    # A is checked Hermitian before its dimension, and B and C are named before A's dimension too
    n = linalg.MAX_DIM + 1
    diagonal = [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]
    payload = {"schema_version": 1, "label": "big", "factor_dim": n, "matrix_a": diagonal, "matrix_b": diagonal,
               "matrix_c": json.loads(json.dumps(diagonal)), "alpha": 1.0, "state": [[1.0, 0.0]] + [[0.0, 0.0]] * (n * n - 1)}
    if fault is not None:
        payload[fault] = json.loads(json.dumps(diagonal))
        payload[fault][0][1] = [1.0, 0.0]
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", str(bad)]) == EXIT_INVARIANT
    named = f"{fault} is not Hermitian within tolerance" if fault else f"dimension {n} exceeds the supported envelope of {linalg.MAX_DIM}"
    assert capsys.readouterr().err == f"epr: invariant violation: {named}\n"
