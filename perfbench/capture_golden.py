"""Rewrite the golden outputs that the correctness gate compares against.

Run from the checkout root: python3 perfbench/capture_golden.py

It stores the ``epr analyze`` report of each bundled scenario byte for
byte, and the digest of the sampled counts of every sample operation the
preflight and the default seed of each workload run. Every output must
first pass the non-golden checks. Recapture only for a change that is
meant to move report bytes or sampled counts, and say which ones moved.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import SRC, WORK, execute

sys.path.insert(0, str(SRC))

import eprkit  # noqa: E402
import eprkit.cli as cli  # noqa: E402
from checks import GOLDEN_COUNTS, Checker, counts_digest, golden_analyze_path  # noqa: E402
from eprkit import io as epr_io  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build, preflight_ops  # noqa: E402


def main() -> int:
    scenario_dir = Path(eprkit.__file__).parent / "scenarios"
    checker = Checker(scenario_dir, golden=False)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
    try:
        ops = preflight_ops(scenario_dir)
        for workload in WORKLOADS:
            ops += build(workload, DEFAULT_SEED, work_dir, scenario_dir)
        analyze, counts = {}, {}
        for op in ops:
            rc, out, err, _ = execute(cli, op)
            problems = checker.check(op, rc, out, err)
            if problems:
                print(f"{' '.join(op.argv)}: {problems}", file=sys.stderr)
                return 1
            if op.kind == "analyze" and op.scenario.parent == scenario_dir:
                analyze[op.scenario.stem] = out
            elif op.kind == "sample":
                counts[op.golden_key] = counts_digest(epr_io.run_report_from_json(out))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for stem, text in analyze.items():
        golden_analyze_path(stem).write_text(text, encoding="utf-8")
    GOLDEN_COUNTS.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(analyze)} analyze reports and {len(counts)} count digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
