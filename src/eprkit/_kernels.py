"""Measurement-chain sampling kernel: one vectorized numpy implementation.

The random stream is counter-based (splitmix64): draw number n under seed g
is ``mix64(g + n * PHI)`` with all arithmetic mod 2^64, so any draw can be
produced independently of the others. Its top 53 bits are the draw's
integer m, and its uniform is exactly u = m * 2^-53, in [0, 1). Shot i
consumes draws 2i+1 and 2i+2, one for the sum outcome and one for the
conditional first-factor outcome, which makes results independent of
evaluation order.

Outcome selection is inverse-CDF with strict comparison: the chosen index is
the first k with u < cdf[k]. Callers must pass cdf arrays whose final entry
is exactly 1.0; uniforms are 53-bit and therefore strictly below 1.0.

The kernel selects on the integers, never on floats. u < c holds exactly
when m < T(c) with T(c) = ceil(c * 2^53) clamped to [0, 2^53], so each cdf
becomes a table of integer thresholds. Row k of the conditional table,
offset by k * 2^53, makes one sorted joint table; a shot's key
(sum index << 53) | m_cond then finds its flat (sum, first-factor) index
with a single ``searchsorted``, which ``bincount`` tallies.

``ACTIVE_BACKEND`` and ``backends()`` name the kernel for benchmark and
trace output.
"""

from __future__ import annotations

import numpy as np

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BITS = np.uint64(53)
_SCALE = 9007199254740992.0  # 2^53
_U53 = 1.0 / _SCALE  # 2^-53
# Joint keys are (sum index << 53) | m, so sum indices must fit in 64 - 53 bits.
MAX_SUM_OUTCOMES = (1 << 11) - 1


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    return x ^ (x >> np.uint64(31))


def _draw_bits(seed: int, draws: np.ndarray) -> np.ndarray:
    """The 53-bit integers m of the given uint64 draw numbers of the seed's stream."""
    return _mix64(np.uint64(seed) + draws * _PHI) >> np.uint64(11)


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draw numbers offset+1 .. offset+count of the seed's stream, in [0, 1)."""
    draws = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    return _draw_bits(seed, draws).astype(np.float64) * _U53


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """uint64 T, nondecreasing along the last axis, with m < T exactly when m * 2^-53 < cdf.

    Both sides of u < c scale by 2^53 exactly, and for an integer m, m < x
    exactly when m < ceil(x). Every m is below 2^53, so the clamp changes no
    comparison; the running maximum then changes no first index with m < T.
    """
    t = np.clip(np.ceil(cdf * _SCALE), 0.0, _SCALE).astype(np.uint64)
    return np.maximum.accumulate(t, axis=-1)


# Shots processed per vectorized batch; bounds peak memory at a few MB while
# leaving counts bit-identical (the stream is counter-based, so slicing it
# into batches changes nothing).
CHUNK_SHOTS = 1 << 18


def sample_counts(seed: int, shots: int, sum_cdf: np.ndarray, cond_cdf: np.ndarray) -> np.ndarray:
    """Tally the (sum outcome, first-factor outcome) pairs of ``shots`` chains.

    ``sum_cdf`` has shape (D,), ``cond_cdf`` has shape (D, N) with one row per
    sum outcome; returns int64 counts of shape (D, N). Raises ``ValueError``
    unless every cdf is finite and ends in exactly 1.0, and for D above
    ``MAX_SUM_OUTCOMES``.
    """
    sum_cdf = np.ascontiguousarray(sum_cdf, dtype=np.float64)
    cond_cdf = np.ascontiguousarray(cond_cdf, dtype=np.float64)
    d = sum_cdf.shape[0]
    if sum_cdf.ndim != 1 or cond_cdf.ndim != 2 or cond_cdf.shape[0] != d:
        raise ValueError("cond_cdf must have one row per sum outcome")
    if d > MAX_SUM_OUTCOMES:
        raise ValueError(f"at most {MAX_SUM_OUTCOMES} sum outcomes can be sampled, got {d}")
    n_out = cond_cdf.shape[1]
    if (
        d == 0
        or n_out == 0
        or not (np.isfinite(sum_cdf).all() and np.isfinite(cond_cdf).all())
        or sum_cdf[-1] != 1.0
        or (cond_cdf[:, -1] != 1.0).any()
    ):
        raise ValueError("every cdf must be finite and end in exactly 1.0")

    t_sum = _thresholds(sum_cdf)
    # Row k spans [k * 2^53, (k + 1) * 2^53], so the flattened table is sorted.
    rows = np.arange(d, dtype=np.uint64)[:, None] << _BITS
    t_joint = (rows + _thresholds(cond_cdf)).ravel()

    flat = np.zeros(d * n_out, dtype=np.int64)
    for start in range(0, shots, CHUNK_SHOTS):
        batch = min(CHUNK_SHOTS, shots - start)
        draws = np.arange(2 * start + 1, 2 * (start + batch), 2, dtype=np.uint64)
        m_sum = _draw_bits(seed, draws)
        m_cond = _draw_bits(seed, draws + np.uint64(1))

        # Every array stays uint64: mixing in int64 would promote to float64.
        key = np.searchsorted(t_sum, m_sum, side="right").astype(np.uint64)
        key <<= _BITS
        key |= m_cond
        flat += np.bincount(np.searchsorted(t_joint, key, side="right"), minlength=d * n_out)
    return flat.reshape(d, n_out)


ACTIVE_BACKEND = "python"


def backends():
    """Name -> kernel mapping; the numpy kernel is the only one."""
    return {ACTIVE_BACKEND: sample_counts}
