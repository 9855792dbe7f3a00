"""Command-line front end.

Subcommands: ``verify`` (invariant checks with a residual table), ``analyze``
(full analysis report), ``sample`` (reproducible shot sampling), and
``demo-pauli`` (emit the two-qubit Pauli scenario for given amplitudes).
Exit codes are a stable contract: 0 success, 1 usage (including unreadable
paths), 2 file parse error, 3 invariant violation, 4 impossible-outcome
request. No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .errors import (
    DegenerateSpectrumError,
    ImpossibleOutcomeError,
    ScenarioFormatError,
    ScenarioInvariantError,
)
from .lab import MAX_SEED, Scenario, build_pauli_scenario, compare_empirical, sample_chain
from .states import _require_integer, verify_theorem1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IMPOSSIBLE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The ``epr`` argument parser, built once per process: parsing leaves no state on it."""
    parser = _Parser(prog="epr", description="EPR analysis for finite-level composite systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a scenario file's invariants")
    p_verify.add_argument("path")

    p_analyze = sub.add_parser("analyze", help="run the full analysis and emit a JSON report")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--out", default=None, help="write the report here instead of stdout")

    p_sample = sub.add_parser("sample", help="sample measurement chains and emit a JSON report")
    p_sample.add_argument("path")
    p_sample.add_argument("--shots", required=True)
    p_sample.add_argument("--seed", default="0")
    p_sample.add_argument("--out", default=None)

    p_demo = sub.add_parser("demo-pauli", help="emit the two-qubit Pauli scenario for given amplitudes")
    p_demo.add_argument(
        "--amplitudes",
        required=True,
        help="8 comma-separated floats: re,im for each of the four product-basis amplitudes",
    )
    p_demo.add_argument("--label", default="pauli-pair")
    p_demo.add_argument("--out", default=None)

    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _load_scenario(path: str) -> Scenario:
    return io.scenario_from_json(_read_text(path))


def _decimal(text: str) -> int | str:
    """The int ``text`` spells in canonical decimal, else ``text`` itself for ``_require_integer`` to refuse.

    Canonical means ASCII digits with no sign and no leading zero (``0``
    itself aside), so a report prints the very text given; ``int`` alone also
    reads ``1_0``, `` 10 ``, ``+5``, ``007`` and non-ASCII digits.
    """
    return int(text) if text.isascii() and text.isdigit() and (text == "0" or text[0] != "0") else text


def _escape_unprintable(text: str) -> str:
    """``text`` with each character ``str.isprintable`` rejects written as "backslashreplace" writes it."""

    def escape(c: str) -> str:
        code = ord(c)
        return f"\\x{code:02x}" if code < 0x100 else f"\\u{code:04x}" if code < 0x10000 else f"\\U{code:08x}"

    return "".join(c if c.isprintable() else escape(c) for c in text)


def _cmd_verify(args) -> int:
    sc = _load_scenario(args.path)
    t1 = verify_theorem1(sc.obs_a, sc.obs_b, sc.alpha)
    herm = {
        name: float(np.abs(obs.matrix - obs.matrix.conj().T).max())
        for name, obs in (("matrix_a", sc.obs_a), ("matrix_b", sc.obs_b), ("matrix_c", sc.obs_c))
    }
    lines = [
        # a newline in the label would start a line of its own, such as a forged verdict
        f"scenario: {_escape_unprintable(sc.label)} (factor_dim={sc.factor_dim}, alpha={sc.alpha:g})",
        f"  input state norm:                {sc.initial_state.norm_scale:.15g}",
    ]
    for name, residual in herm.items():
        lines.append(f"  hermiticity residual {name}:  {residual:.3e}")
    lines.append(f"  commutation residual [A,B]/(i*alpha) - C:  {sc.commutation_residual:.3e}")
    lines.append(f"  trace residual of C:             {t1.trace_residual:.3e}")
    lines.append(f"  max |<a|C|a>| in A eigenbasis:   {t1.max_diag_residual:.3e}")
    lines.append("all invariants satisfied")
    # the label may hold characters stdout cannot encode: write them as backslash escapes
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    sys.stdout.write(("\n".join(lines) + "\n").encode(encoding, "backslashreplace").decode(encoding))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    sc = _load_scenario(args.path)
    payload = io.run_report_payload(sc, io.analysis_to_payload(sc.analysis), None, __version__)
    _write_output(io.emit_json(payload), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    # both before the scenario file is read
    try:
        shots = _require_integer(_decimal(args.shots), "--shots", 1)
        seed = _require_integer(_decimal(args.seed), "--seed", 0, MAX_SEED)
    except ValueError as exc:  # int() refuses past its digit limit too
        raise _UsageError(str(exc)) from None
    sc = _load_scenario(args.path)
    record = sample_chain(sc, shots, seed)
    comparison = compare_empirical(record, sc)
    payload = io.run_report_payload(
        sc,
        io.analysis_to_payload(sc.analysis),
        io.sampling_to_payload(record, comparison),
        __version__,
    )
    _write_output(io.emit_json(payload), args.out)
    return EXIT_OK


def _cmd_demo_pauli(args) -> int:
    parts = args.amplitudes.split(",")
    if len(parts) != 8:
        raise _UsageError(f"--amplitudes needs 8 comma-separated floats, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise _UsageError(f"--amplitudes must be numeric: {exc}") from exc
    amplitudes = [complex(values[i], values[i + 1]) for i in range(0, 8, 2)]
    try:
        # write no label that scenario_from_json would reject
        io._require_unicode_label(args.label)
        sc = build_pauli_scenario(amplitudes, label=args.label)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write_output(io.scenario_to_json(sc), args.out)
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "sample": _cmd_sample,
    "demo-pauli": _cmd_demo_pauli,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"epr: error: {exc}\n")
        return EXIT_USAGE
    except ScenarioFormatError as exc:
        sys.stderr.write(f"epr: parse error: {exc}\n")
        return EXIT_PARSE
    except (ScenarioInvariantError, DegenerateSpectrumError) as exc:
        sys.stderr.write(f"epr: invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except ImpossibleOutcomeError as exc:
        sys.stderr.write(f"epr: impossible outcome: {exc}\n")
        return EXIT_IMPOSSIBLE


if __name__ == "__main__":
    raise SystemExit(main())
