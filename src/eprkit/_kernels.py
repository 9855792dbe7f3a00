"""Measurement-chain sampling kernel: one vectorized numpy implementation.

The random stream is counter-based (splitmix64): draw number n of a seed
is ``mix64(seed + n * PHI)`` with all arithmetic mod 2^64, so any draw can be
produced independently of the others. Its top 53 bits are the draw's
integer m, and its uniform is exactly u = m * 2^-53, in [0, 1). Shot i
consumes draws 2i+1 and 2i+2, one for the sum outcome and one for the
conditional first-factor outcome, which makes results independent of
evaluation order and of the batch size.

Outcome selection is inverse-CDF with strict comparison: the chosen index is
the first k with u < cdf[k]. Callers must pass cdf arrays whose final entry
is exactly 1.0; uniforms are 53-bit and therefore strictly below 1.0.

The kernel selects on the integers, never on floats. u < c holds exactly
when m < T(c) with T(c) = ceil(c * 2^53) clamped to [0, 2^53], so the sum
cdf becomes a (D,) table of integer thresholds and the conditional cdfs a
(D, N) table, one row per sum outcome. A shot's sum index k is
``searchsorted(t_sum, m_sum, side="right")``, its first-factor index the
first column of row k whose threshold is above m_cond, and its flat
(sum, first-factor) index k * N plus that column.

Both come from guide tables (Chen & Asau 1974; Devroye 1986, III.2.4),
which ``_guide`` builds for a (rows, width) table with 2^bits buckets per
row, and one table over both draws settles most shots at once. The top g
bits of m pick one of 2^g buckets of the sum table, a one-row table; a sum
index k and the top h bits of the second draw pick bucket (k << h) | c of
the conditional table. Each bucket stores the flat index of its lowest
integer and whether a threshold of its row falls inside it, above that
integer; both are counted off the thresholds, with no search. A shot's
cell is its sum bucket b next to its first-factor bucket c, (b << h) | c.
The cell is exact when neither b nor bucket c of row ``sum_first[b]``
holds a threshold inside it: every shot in it then has the same
(sum, first-factor) index. Each batch tallies its cells with one
``bincount``, and after the last batch each exact cell's tally goes to its
one index, in integers. Only shots in split cells are resolved one by
one, on the compressed subset: k by ``searchsorted``, the flat index by
the conditional guide, and in a split bucket by stepping from the
bucket's index past every threshold at or below m_cond. They are held
until a quarter batch's worth has gathered. Either way every shot's index
is that of the first threshold above its draw, for every m.

g and h come from the thresholds and the shot count (``_cell_bits``). A
threshold splits a bucket only when it is not on a bucket edge: one whose
lowest set bit is bit 53 - e (its dyadic depth e) sits on an edge at e
bits or more. With S(g) of the sum thresholds deeper than g bits and C(h)
of a conditional row's deeper than h (``_split_counts``, at most D - 1 and
N - 1), at most S(g) / 2^g + C(h) / 2^h of the shots land in split cells.
A level gets no bits beyond its thresholds' depth, so dyadic tables such
as ``pauli_uniform``'s get (g, h) = (2, 1) and no split cell. The table
has at most 2^14 cells and about one per 8 shots, since building and
reading back a cell costs about as much as drawing a shot. The cells are
read before splitmix64's last step, x ^ (x >> 31), which leaves the top 31
bits as they are; only held shots take that step.

A level whose thresholds are all 0 or 2^53, with no inner threshold
strictly between them, sends every m to one index. It gets no bits (g or
h is 0) and no draws: no ramp offset, no splitmix64 and no part of the
cell. That is the sum level of a sum eigenstate such as the EPR state
(D = 1), and the first-factor level when every branch has one chain
(width 1, as for N = 1). No batch writes its row of the held shots, and
any m there resolves to its one index. When neither level is drawn,
every shot lands in the one cell and no batch runs.

Shots run in batches of ``CHUNK_SHOTS``, small enough that a batch's
buffers stay in a core's L2 cache: a ramp of i * 2 PHI, the draws of each
drawn level (the batch's sum draws, then its first-factor draws, each the
ramp plus the level's offset) that splitmix64 turns into bits in place,
one scratch buffer, the flags, and the held draws of up to a quarter
batch of split-cell shots: 45 bytes per shot when both levels are drawn,
37 when one is. The cell table adds at most 25 bytes per cell.
They are allocated once per call and reused, so no array of full shot
length is built and memory does not grow with ``shots``.

``ACTIVE_BACKEND`` and ``backends()`` name the kernel for benchmark and
trace output.
"""

from __future__ import annotations

import numpy as np

_PHI_INT = 0x9E3779B97F4A7C15
_PHI = np.uint64(_PHI_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SCALE = 9007199254740992.0  # 2^53
_U53 = 1.0 / _SCALE  # 2^-53
_LOW_BITS = np.uint64((1 << 53) - 1)


def _mix_head(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's first two xor-shift-multiply steps, in place on the uint64 array x.

    ``scratch`` is the one work buffer. The output function's last step,
    x ^ (x >> 31), leaves the top 31 bits of x as they are.
    """
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= mix
    return x


def _mix_tail(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's last step and the shift to 53 bits, in place: m = (x ^ (x >> 31)) >> 11."""
    x ^= np.right_shift(x, 31, out=scratch)
    x >>= 11
    return x


def _draw_bits(seed: int, draws: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 53-bit integers m of the given uint64 draw numbers of the seed's stream.

    splitmix64 runs in place on ``out`` (a new array if None; ``draws``
    itself may be passed), with one new work buffer.
    """
    x = np.multiply(draws, _PHI, out=out)
    x += np.uint64(seed)
    scratch = np.empty_like(x)
    return _mix_tail(_mix_head(x, scratch), scratch)


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
    t = np.ceil(cdf * _SCALE)
    np.minimum(np.maximum(t, 0.0, out=t), _SCALE, out=t)
    t = t.astype(np.uint64)
    return np.maximum.accumulate(t, axis=-1)


def _guide(table: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Guide table of a (rows, width) uint64 threshold table, 2^bits buckets per row.

    Bucket (k << bits) | c holds the integers [c << (53 - bits), (c + 1) << (53 - bits))
    of row k. Returns, per bucket, the flat index k * width + ``searchsorted(table[k],
    lowest integer, side="right")`` and whether a threshold of row k falls inside
    the bucket above its lowest integer. Where none does, every integer of the
    bucket has that same index. Every threshold must be at most 2^53.
    """
    rows, shift = table.shape[0], np.uint64(53 - bits)
    bucket = (table >> shift) + (np.arange(rows, dtype=np.uint64)[:, None] << np.uint64(bits))
    inside = (table & np.uint64((1 << (53 - bits)) - 1)) != 0
    # T <= the lowest integer of bucket b of its row exactly when b is at least T's bucket,
    # plus one if T is inside it; every threshold of an earlier row counts.
    first = np.bincount((bucket + inside).ravel().astype(np.intp), minlength=(rows << bits) + 1)[: rows << bits]
    np.cumsum(first, out=first)
    split = np.zeros(rows << bits, dtype=bool)
    split[bucket[inside].astype(np.intp)] = True
    return first, split


# Shots processed per vectorized batch: a batch's buffers stay within a
# core's L2 cache, and counts stay bit-identical (the stream is counter-based,
# so slicing it into batches changes nothing).
CHUNK_SHOTS = 1 << 14

# The cell table has at most 2^14 cells and about one per 8 shots; bits stop
# being added once at most 2^-10 of the shots can land in split cells.
_MAX_CELL_BITS = 14
_SHOTS_PER_CELL = 8
_SPLIT_BITS = 10


def _split_counts(tables: np.ndarray | tuple, most: int | tuple) -> list:
    """Entry b, for b = 0 .. ``_MAX_CELL_BITS``: at most how many of a row's 2^b buckets a threshold splits.

    A threshold of a uint64 table strictly between 0 and 2^53 with z
    trailing zero bits (z <= 52) sits on a bucket edge at 53 - z bits or
    more and splits a bucket below that. Entry b counts the thresholds with
    fewer than 53 - b trailing zeros, capped at ``most``, the inner
    thresholds one row can hold. Given a pair of tables and a pair of caps,
    it returns the pair of lists, counted in one pass with one ``bincount``.
    """
    if type(most) is not tuple:
        return _split_counts((tables,), (most,))[0]
    inner = np.concatenate([table.ravel() for table in tables])
    inner &= _LOW_BITS
    lowest = inner - np.uint64(1)
    lowest ^= inner
    # z + 1 for each inner threshold with z trailing zeros, 64 for a threshold of 0 or 2^53, plus 65 in the second table
    through_lowest = np.bitwise_count(lowest)
    through_lowest[tables[0].size :] += 65
    at_most = np.bincount(through_lowest, minlength=65 * len(tables)).reshape(len(tables), 65).cumsum(axis=1)
    return np.minimum(at_most[:, 53 : 52 - _MAX_CELL_BITS : -1], np.array(most)[:, None]).tolist()


def _cell_bits(sum_split: list[int], cond_split: list[int], shots: int) -> tuple[int, int]:
    """Bits g of the sum draw and h of the first-factor draw that make a shot's cell.

    ``sum_split`` and ``cond_split`` are the ``_split_counts`` of the sum
    and conditional threshold tables: at g bits at most ``sum_split[g]`` of
    the 2^g sum buckets hold a threshold inside them, and at h bits at most
    ``cond_split[h]`` of a conditional row's 2^h buckets, so at most
    sum_split[g] / 2^g + cond_split[h] / 2^h of the shots land in split
    cells. A level with an inner threshold starts at one bit, a level with
    none at 0; then a bit goes to the level with the larger share until that
    bound is at most 2^-10 or the table has reached its size limit. A level
    whose thresholds all sit on bucket edges has a share of 0 and gets no
    more bits.
    """
    g, h = min(1, sum_split[0]), min(1, cond_split[0])
    limit = min(_MAX_CELL_BITS, max(2, (shots // _SHOTS_PER_CELL).bit_length()))
    while g + h < limit:
        sum_share, cond_share = sum_split[g] << h, cond_split[h] << g
        if (sum_share + cond_share) << _SPLIT_BITS <= 1 << (g + h):
            break
        if sum_share >= cond_share:
            g += 1
        else:
            h += 1
    return g, h


def _resolve(held, scratch, t_sum, t_cond, joint_first, joint_split, h: int) -> np.ndarray:
    """Flat (sum, first-factor) index of each held shot; ``held`` is (2, shots) of mix heads.

    The sum index k is ``searchsorted(t_sum, m_sum, side="right")``; the flat
    index comes from bucket (k << h) | (m_cond >> (53 - h)) of the
    conditional guide ``joint_first``, and in a bucket ``joint_split`` flags
    it steps past every threshold of row k of ``t_cond`` at or below m_cond.
    Works in ``held`` and ``scratch`` (at least ``held.size`` long) and
    returns a view of ``held``.
    """
    m_sum, m_cond = _mix_tail(held, scratch[: held.size].reshape(held.shape))
    bucket = np.searchsorted(t_sum, m_sum, side="right")
    bucket <<= h
    bucket |= np.right_shift(m_cond, 53 - h, out=m_sum).view(np.int64)
    # Every bucket is in range, so mode="wrap" only skips the bounds check.
    index = np.take(joint_first, bucket, out=m_sum.view(np.int64), mode="wrap")
    refine = joint_split[bucket].nonzero()[0]
    at, m, t_flat = index[refine], m_cond[refine], t_cond.ravel()
    # Every row ends in 2^53, above every m, so no step leaves the shot's row.
    while (step := m >= t_flat[at]).any():
        at += step
    index[refine] = at
    return index


def sample_counts(seed: int, shots: int, sum_cdf: np.ndarray, cond_cdf: np.ndarray) -> np.ndarray:
    """Tally the (sum outcome, first-factor outcome) pairs of ``shots`` chains.

    ``sum_cdf`` has shape (D,), ``cond_cdf`` has shape (D, N) with one row per
    sum outcome; returns int64 counts of shape (D, N). Raises ``ValueError``
    unless every cdf is finite and ends in exactly 1.0.
    """
    sum_cdf = np.ascontiguousarray(sum_cdf, dtype=np.float64)
    cond_cdf = np.ascontiguousarray(cond_cdf, dtype=np.float64)
    d = sum_cdf.shape[0]
    if sum_cdf.ndim != 1 or cond_cdf.ndim != 2 or cond_cdf.shape[0] != d:
        raise ValueError("cond_cdf must have one row per sum outcome")
    n_out = cond_cdf.shape[1]
    if (
        d == 0
        or n_out == 0
        or not (np.isfinite(sum_cdf).all() and np.isfinite(cond_cdf).all())
        or sum_cdf[-1] != 1.0
        or (cond_cdf[:, -1] != 1.0).any()
    ):
        raise ValueError("every cdf must be finite and end in exactly 1.0")

    t_sum, t_cond = _thresholds(sum_cdf), _thresholds(cond_cdf)
    # A level with no inner threshold, strictly between 0 and 2^53, sends
    # every m to one index: it gets no bits in the cell and is not drawn.
    g, h = _cell_bits(*_split_counts((t_sum, t_cond), (d - 1, n_out - 1)), shots)
    sum_first, sum_split = _guide(t_sum[None], g)
    joint_first, joint_split = _guide(t_cond, h)
    # Cell (b << h) | c pairs sum bucket b with bucket c of conditional row sum_first[b].
    cell_split = (joint_split.reshape(d, 1 << h)[sum_first] | sum_split[:, None]).ravel()
    any_split = cell_split.any()

    tally = np.zeros(1 << (g + h), dtype=np.int64)
    flat = np.zeros(d * n_out, dtype=np.int64)
    # The drawn levels, 0 the sum and 1 the first factor, and the shift to the first one's cell bits.
    levels = [level for level, level_bits in ((0, g), (1, h)) if level_bits]
    first_shift = 64 - (g or h)
    if not levels:
        tally[0] = shots  # every shot lands in the one cell, and no batch runs
    chunk = max(1, min(CHUNK_SHOTS, shots))
    # Shot i of the batch from ``start`` draws n = 2 (start + i) + 1 for its
    # sum outcome and n + 1 for its first-factor outcome, so its seed + n * PHI
    # is the ramp i * 2 PHI plus its level's offset, seed + (1 + level) PHI,
    # plus the batch's 2 start PHI. Python ints wrap mod 2^64 without a numpy
    # overflow warning.
    ramp = np.arange(chunk, dtype=np.uint64)
    ramp *= 2 * _PHI_INT % (1 << 64)
    offsets = [seed + (1 + level) * _PHI_INT for level in levels]
    # One set of batch buffers, reused: the draws of each drawn level (sum
    # draws, then first-factor draws), one scratch buffer that then holds the
    # cells, the flags, and the held mix heads of up to a quarter batch of
    # split-cell shots. No batch writes the held row of a level that is not
    # drawn: it starts at 0, and every m there resolves to the level's one index.
    bits = np.empty(len(levels) * chunk, dtype=np.uint64)
    scratch = np.empty(2 * chunk, dtype=np.uint64)
    flagged = np.empty(chunk, dtype=bool)
    held = np.zeros((2, max(1, chunk // 4)), dtype=np.uint64)
    held_rows = [held[level] for level in levels]
    n_held = 0

    def counts_of(pairs: np.ndarray) -> np.ndarray:
        """Counts of the flat indices of the (2, shots) mix heads ``pairs``."""
        return np.bincount(_resolve(pairs, scratch, t_sum, t_cond, joint_first, joint_split, h), minlength=d * n_out)

    for start in range(0, shots if levels else 0, chunk):
        batch = min(chunk, shots - start)
        x = bits[: len(levels) * batch]
        draws = x.reshape(len(levels), batch)
        for row, offset in zip(draws, offsets):
            np.add(ramp[:batch], (2 * start * _PHI_INT + offset) % (1 << 64), out=row)
        _mix_head(x, scratch[: x.size])
        # The cell is the top g bits of the sum draw next to the top h bits of
        # the first-factor draw; the mix tail leaves those bits as they are.
        cell = np.right_shift(draws[0], first_shift, out=scratch[:batch])
        if len(levels) == 2:
            cell <<= h
            cell |= np.right_shift(draws[1], 64 - h, out=scratch[batch : 2 * batch])
        cell = cell.view(np.int64)
        tally += np.bincount(cell, minlength=len(tally))
        if not any_split:
            continue  # every shot's cell is exact, so the tally holds all of them
        # Every cell is in range, so mode="wrap" only skips the bounds check.
        split = np.take(cell_split, cell, out=flagged[:batch], mode="wrap").nonzero()[0]
        if len(split) > held.shape[1]:  # more than the held buffer takes: resolve them now
            pairs = np.zeros((2, len(split)), dtype=np.uint64)
            pairs[levels] = draws[:, split]
            flat += counts_of(pairs)
            continue
        if n_held + len(split) > held.shape[1]:
            flat += counts_of(held[:, :n_held])
            n_held = 0
        for row, level_held in zip(draws, held_rows):
            np.take(row, split, out=level_held[n_held : n_held + len(split)])
        n_held += len(split)
    if n_held:
        flat += counts_of(held[:, :n_held])
    # Split cells' shots are counted already; every exact cell's go to its one index.
    tally[cell_split] = 0
    np.add.at(flat, joint_first.reshape(d, 1 << h)[sum_first].ravel(), tally)
    return flat.reshape(d, n_out)


ACTIVE_BACKEND = "python"


def backends():
    """Name -> kernel mapping; the numpy kernel is the only one."""
    return {ACTIVE_BACKEND: sample_counts}
