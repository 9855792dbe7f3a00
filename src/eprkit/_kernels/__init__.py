"""Measurement-chain sampling kernel.

One implementation, the vectorized numpy sampler in ``sampling_py``, of the
counter-based algorithm: seeded counts are reproducible and independent of
batch size. ``ACTIVE_BACKEND`` and ``backends()`` name it for benchmark and
trace output.
"""

from .sampling_py import sample_counts

ACTIVE_BACKEND = "python"


def backends():
    """Name -> kernel mapping; the numpy kernel is the only one."""
    return {ACTIVE_BACKEND: sample_counts}
