"""The names perfbench/tracing.py wraps must exist, so a refactor that drops one fails here.

The tracing module is parsed, never imported or changed, as test_golden.py
reads perfbench/golden/ without writing it.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from eprkit import _kernels, linalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_spans() -> dict[str, tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANS")


def test_every_traced_span_resolves_to_a_function():
    spans = traced_spans()
    assert spans
    for name, (module, attr) in spans.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{name}: {module}.{attr} is gone"


def test_kernel_backends_and_eigh_hook_exist():
    # perfbench prints the active backend, times every backend, and wraps eigh through eprkit.linalg.np
    assert _kernels.backends()[_kernels.ACTIVE_BACKEND] is _kernels.sample_counts
    assert linalg.np is np
