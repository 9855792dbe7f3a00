"""Measurement-chain sampling kernel: one vectorized numpy implementation.

The random stream is counter-based (splitmix64): draw number n under seed g
is ``mix64(g + n * PHI)`` with all arithmetic mod 2^64, so any draw can be
produced independently of the others. Its top 53 bits are the draw's
integer m, and its uniform is exactly u = m * 2^-53, in [0, 1). Shot i
consumes draws 2i+1 and 2i+2, one for the sum outcome and one for the
conditional first-factor outcome, which makes results independent of
evaluation order and of the batch size.

Outcome selection is inverse-CDF with strict comparison: the chosen index is
the first k with u < cdf[k]. Callers must pass cdf arrays whose final entry
is exactly 1.0; uniforms are 53-bit and therefore strictly below 1.0.

The kernel selects on the integers, never on floats. u < c holds exactly
when m < T(c) with T(c) = ceil(c * 2^53) clamped to [0, 2^53], so each cdf
becomes a table of integer thresholds. Row k of the conditional table,
offset by k * 2^53, makes one sorted joint table; a shot's key
(sum index << 53) | m_cond has its flat (sum, first-factor) index at
``searchsorted(joint, key, side="right")``, which ``bincount`` tallies.

Both lookups go through guide tables (Chen & Asau 1974; Devroye 1986,
III.2.4). The top g = D.bit_length() + 2 bits of m pick one of 2^g buckets
of the sum table; a joint key's sum index and the top h = N.bit_length() + 2
bits of its m pick one of 2^h buckets of that row. Each bucket stores
the ``searchsorted`` index of its lowest integer and whether a threshold
falls inside it, above that integer; both are counted off the thresholds,
with no search. A shot whose bucket holds no threshold takes its index in
one gather; the others, a fraction of at most D / 2^g and N / 2^h, are
refined by ``searchsorted`` on the compressed subset. Either way the index
is the binary search's, for every m.

Shots run in batches of ``CHUNK_SHOTS``, small enough that a batch's
buffers stay in a core's L2 cache: the draw numbers of one batch, a copy
that splitmix64 turns into their bits in place, one scratch buffer, and the
index and flag arrays, 57 bytes per shot. They are allocated once per call
and reused, so no array of full shot length is built and memory does not
grow with ``shots``.

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


def _draw_bits(
    seed: int, draws: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The 53-bit integers m of the given uint64 draw numbers of the seed's stream.

    splitmix64 runs in place on ``out`` (a new array if None; ``draws``
    itself may be passed), with ``scratch`` as its one work buffer.
    """
    x = np.multiply(draws, _PHI, out=out)
    x += np.uint64(seed)
    scratch = np.empty_like(x) if scratch is None else scratch
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(x, np.uint64(shift), out=scratch)
        x ^= scratch
        if mix is not None:
            x *= mix
    x >>= np.uint64(11)
    return x


def uniforms(seed: int, count: int) -> np.ndarray:
    """Draw numbers 1 .. count of the seed's stream, in [0, 1)."""
    draws = np.arange(1, count + 1, dtype=np.uint64)
    return _draw_bits(seed, draws, out=draws).astype(np.float64) * _U53


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """uint64 T, nondecreasing along the last axis, with m < T exactly when m * 2^-53 < cdf.

    Both sides of u < c scale by 2^53 exactly, and for an integer m, m < x
    exactly when m < ceil(x). Every m is below 2^53, so the clamp changes no
    comparison; the running maximum then changes no first index with m < T.
    """
    t = np.clip(np.ceil(cdf * _SCALE), 0.0, _SCALE).astype(np.uint64)
    return np.maximum.accumulate(t, axis=-1)


def _guide(table: np.ndarray, shift: int, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Guide table of a uint64 ``table`` over buckets [b << shift, (b + 1) << shift).

    Returns, per bucket, ``searchsorted(table, b << shift, side="right")``
    and whether a threshold falls inside the bucket above its lowest
    integer. Where none does, every key of the bucket has that same index.
    Every threshold must be at most ``buckets << shift``.
    """
    bucket = table >> np.uint64(shift)
    inside = (table & np.uint64((1 << shift) - 1)) != 0
    # T <= b << shift exactly when b is at least T's bucket, plus one if T is inside it.
    first = np.bincount((bucket + inside).astype(np.intp), minlength=buckets + 1)[:buckets]
    np.cumsum(first, out=first)
    split = np.zeros(buckets, dtype=bool)
    split[bucket[inside].astype(np.intp)] = True
    return first, split


# Shots processed per vectorized batch: a batch's buffers stay within a
# core's L2 cache, and counts stay bit-identical (the stream is counter-based,
# so slicing it into batches changes nothing).
CHUNK_SHOTS = 1 << 14


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
    # A key's bucket is its top bits: 2^g per sum table, 2^h per joint row.
    g = d.bit_length() + 2
    h = n_out.bit_length() + 2
    sum_first, sum_split = _guide(t_sum, 53 - g, 1 << g)
    joint_first, joint_split = _guide(t_joint, 53 - h, d << h)

    flat = np.zeros(d * n_out, dtype=np.int64)
    chunk = max(1, min(CHUNK_SHOTS, shots))
    # One set of batch buffers, reused: the first batch's interleaved draw
    # numbers, a copy offset to the current batch that splitmix64 turns into
    # their bits in place, one scratch buffer that then holds the buckets and
    # cells, and the index and flag arrays.
    steps = np.arange(1, 2 * chunk + 1, dtype=np.uint64)
    bits = np.empty(2 * chunk, dtype=np.uint64)
    scratch = np.empty(2 * chunk, dtype=np.int64)
    index = np.empty(chunk, dtype=np.int64)
    flagged = np.empty(chunk, dtype=bool)
    for start in range(0, shots, chunk):
        batch = min(chunk, shots - start)
        # Shot i draws 2i+1 for its sum outcome and 2i+2 for its first-factor outcome.
        x = np.add(steps[: 2 * batch], np.uint64(2 * start), out=bits[: 2 * batch])
        _draw_bits(seed, x, out=x, scratch=scratch[: 2 * batch].view(np.uint64))
        # Every m is below 2^53, so the int64 view holds the same integers and
        # indexes without a cast; the thresholds are compared in uint64.
        m_sum, m_cond = x.view(np.int64)[0::2], x.view(np.int64)[1::2]
        bucket, k, flags = scratch[:batch], index[:batch], flagged[:batch]

        # Every bucket and cell is in range, so mode="wrap" only skips the bounds check.
        np.right_shift(m_sum, 53 - g, out=bucket)
        np.take(sum_first, bucket, out=k, mode="wrap")
        refine = np.flatnonzero(np.take(sum_split, bucket, out=flags, mode="wrap"))
        k[refine] = np.searchsorted(t_sum, x[0::2][refine], side="right")
        # The joint key (k << 53) | m_cond has bucket (k << h) | (m_cond >> (53 - h)).
        k <<= h
        k |= np.right_shift(m_cond, 53 - h, out=bucket)
        cell = np.take(joint_first, k, out=bucket, mode="wrap")
        refine = np.flatnonzero(np.take(joint_split, k, out=flags, mode="wrap"))
        key = (k[refine] >> h).view(np.uint64) << _BITS | x[1::2][refine]
        cell[refine] = np.searchsorted(t_joint, key, side="right")
        flat += np.bincount(cell, minlength=d * n_out)
    return flat.reshape(d, n_out)


ACTIVE_BACKEND = "python"


def backends():
    """Name -> kernel mapping; the numpy kernel is the only one."""
    return {ACTIVE_BACKEND: sample_counts}
