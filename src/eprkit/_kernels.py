"""Measurement-chain sampling kernel: one vectorized numpy implementation.

The random stream is counter-based (splitmix64): draw number n under seed g
is ``mix64(g + n * PHI)`` with all arithmetic mod 2^64, so any draw can be
produced independently of the others. Shot i consumes draws 2i+1 and 2i+2,
one for the sum outcome and one for the conditional first-factor outcome,
which makes results independent of evaluation order.

Outcome selection is inverse-CDF with strict comparison: the chosen index is
the first k with u < cdf[k]. Callers must pass cdf arrays whose final entry
is exactly 1.0; uniforms are 53-bit and therefore strictly below 1.0.

``ACTIVE_BACKEND`` and ``backends()`` name the kernel for benchmark and
trace output.
"""

from __future__ import annotations

import numpy as np

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2^-53


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    return x ^ (x >> np.uint64(31))


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draw numbers offset+1 .. offset+count of the seed's stream, in [0, 1)."""
    n = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    x = _mix64(np.uint64(seed) + n * _PHI)
    return (x >> np.uint64(11)).astype(np.float64) * _U53


# Shots processed per vectorized batch; bounds peak memory at a few MB while
# leaving counts bit-identical (the stream is counter-based, so slicing it
# into batches changes nothing).
CHUNK_SHOTS = 1 << 18


def sample_counts(seed: int, shots: int, sum_cdf: np.ndarray, cond_cdf: np.ndarray) -> np.ndarray:
    """Tally the (sum outcome, first-factor outcome) pairs of ``shots`` chains.

    ``sum_cdf`` has shape (D,), ``cond_cdf`` has shape (D, N) with one row per
    sum outcome; returns int64 counts of shape (D, N).
    """
    sum_cdf = np.ascontiguousarray(sum_cdf, dtype=np.float64)
    cond_cdf = np.ascontiguousarray(cond_cdf, dtype=np.float64)
    d = sum_cdf.shape[0]
    if cond_cdf.ndim != 2 or cond_cdf.shape[0] != d:
        raise ValueError("cond_cdf must have one row per sum outcome")
    n_out = cond_cdf.shape[1]

    flat = np.zeros(d * n_out, dtype=np.int64)
    for start in range(0, shots, CHUNK_SHOTS):
        batch = min(CHUNK_SHOTS, shots - start)
        u = uniforms(seed, 2 * batch, offset=2 * start)
        u_sum = u[0::2]
        u_cond = u[1::2]

        s_idx = np.searchsorted(sum_cdf, u_sum, side="right")
        s_idx = np.minimum(s_idx, d - 1)
        # First index of each selected row whose cdf entry exceeds the uniform.
        a_idx = (u_cond[:, None] < cond_cdf[s_idx]).argmax(axis=1)

        flat += np.bincount(s_idx * n_out + a_idx, minlength=d * n_out)
    return flat.reshape(d, n_out)


ACTIVE_BACKEND = "python"


def backends():
    """Name -> kernel mapping; the numpy kernel is the only one."""
    return {ACTIVE_BACKEND: sample_counts}
