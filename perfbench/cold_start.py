"""One cold start: import eprkit.cli in this fresh process and run one operation.

Usage: python3 perfbench/cold_start.py <epr arguments...>, with ``src`` on
PYTHONPATH. Prints one JSON line with the seconds from before the import to
the end of the operation, the exit code and the SHA-256 of its output.
"""

import time

start = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402

import eprkit.cli  # noqa: E402

out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = eprkit.cli.main(sys.argv[1:])
elapsed = time.perf_counter() - start

import hashlib  # noqa: E402
import json  # noqa: E402

print(json.dumps({"seconds": elapsed, "rc": rc, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}))
