import tracemalloc
from importlib.resources import files

import numpy as np
import pytest

from eprkit import _kernels, io, lab
from eprkit._kernels import sample_counts

from helpers import reference_sample_counts


@pytest.fixture
def simple_tables():
    sum_cdf = np.array([0.25, 0.75, 1.0])
    cond_cdf = np.array([[1.0, 1.0], [0.5, 1.0], [0.2, 1.0]])
    return sum_cdf, cond_cdf


def test_uniforms_are_in_unit_interval():
    u = _kernels.uniforms(12345, 10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_uniforms_are_counter_based():
    # any slice of the stream can be regenerated independently
    whole = _kernels.uniforms(7, 100)
    tail = _kernels._draw_bits(7, np.arange(61, 101, dtype=np.uint64)) * 2.0**-53
    assert np.array_equal(whole[60:], tail)


def test_counts_conserve_shots(simple_tables):
    counts = sample_counts(99, 5000, *simple_tables)
    assert counts.sum() == 5000
    assert counts.dtype == np.int64


def test_deterministic_per_seed(simple_tables):
    first = sample_counts(1234, 2000, *simple_tables)
    second = sample_counts(1234, 2000, *simple_tables)
    assert np.array_equal(first, second)
    other = sample_counts(1235, 2000, *simple_tables)
    assert not np.array_equal(first, other)


@pytest.mark.parametrize(
    "seed, expected",
    [
        (0, [[2507, 0], [2566, 2452], [478, 1997]]),
        # seed + n * PHI wraps mod 2**64 from the first draw on
        (2**64 - 1, [[2575, 0], [2472, 2461], [474, 2018]]),
    ],
)
def test_pinned_counts_at_extreme_seeds(seed, expected, simple_tables):
    assert sample_counts(seed, 10000, *simple_tables).tolist() == expected


def test_zero_width_bins_never_selected():
    sum_cdf = np.array([0.5, 0.5, 1.0])  # middle outcome has probability 0
    cond_cdf = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])  # first column of row 2 has prob 0
    counts = sample_counts(2024, 20000, sum_cdf, cond_cdf)
    assert counts[1].sum() == 0
    assert counts[2, 0] == 0


def test_empirical_frequencies_approach_cdf(simple_tables):
    sum_cdf, cond_cdf = simple_tables
    shots = 200000
    counts = sample_counts(31415, shots, sum_cdf, cond_cdf)
    sum_freq = counts.sum(axis=1) / shots
    assert sum_freq == pytest.approx([0.25, 0.5, 0.25], abs=0.01)
    row = counts[1] / counts[1].sum()
    assert row == pytest.approx([0.5, 0.5], abs=0.02)


def test_rejects_mismatched_tables():
    with pytest.raises(ValueError):
        _kernels.sample_counts(0, 10, np.array([1.0]), np.array([[0.5, 1.0], [0.5, 1.0]]))


def test_chunked_accumulation_matches_unchunked(simple_tables, monkeypatch):
    # force a tiny batch size so one call crosses many chunk boundaries
    reference = _kernels.sample_counts(77, 10000, *simple_tables)
    monkeypatch.setattr(_kernels, "CHUNK_SHOTS", 617)
    chunked = _kernels.sample_counts(77, 10000, *simple_tables)
    assert np.array_equal(reference, chunked)


@pytest.mark.parametrize(
    "sum_cdf, cond_cdf",
    [
        ([0.25, 0.75, 1.0 - 2**-53], [[1.0, 1.0], [0.5, 1.0], [0.2, 1.0]]),
        ([0.25, 0.75, 1.0], [[1.0, 1.0], [0.5, 0.5], [0.2, 1.0]]),
        ([0.25, 0.75, 1.0], [[1.0, 1.0], [0.5, 1.0], [0.2, 1.0 + 2**-52]]),
        ([0.25, np.nan, 1.0], [[1.0, 1.0], [0.5, 1.0], [0.2, 1.0]]),
        ([], np.ones((0, 2))),
        ([1.0], np.ones((1, 0))),
    ],
    ids=["sum-short", "row-short", "row-over", "nan", "no-sum-outcomes", "no-first-factor-outcomes"],
)
def test_rejects_cdf_not_ending_in_one(sum_cdf, cond_cdf):
    # a row short of 1.0 would let the joint search run past its last column
    with pytest.raises(ValueError):
        sample_counts(0, 10, np.array(sum_cdf), np.array(cond_cdf))


def test_samples_any_number_of_sum_outcomes():
    # no bound on D: 2^12 + 1 sum outcomes, each row with its own first-factor split
    d = (1 << 12) + 1
    sum_cdf = np.arange(1, d + 1) / d
    sum_cdf[-1] = 1.0
    cond_cdf = np.column_stack([np.linspace(0.0, 1.0, d), np.ones(d)])
    counts = sample_counts(3, 20000, sum_cdf, cond_cdf)
    assert counts.sum() == 20000 and counts[d - 1].sum() > 0
    assert np.array_equal(counts, reference_sample_counts(3, 20000, sum_cdf, cond_cdf))


@pytest.mark.parametrize(
    "c",
    [0.0, 1e-300, 5e-324, 2**-53, 0.5, 0.75, 0.1, 1 / 3, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, -0.25],
)
def test_thresholds_compare_exactly_as_uniforms(c):
    t = int(_kernels._thresholds(np.array([c]))[0])
    assert 0 <= t <= 2**53  # keeps each joint-table row inside its own 2^53 span
    for m in {0, t - 1, t, t + 1, 2**53 - 1}:
        if 0 <= m < 2**53:
            assert (m < t) == (m * 2.0**-53 < c), m


def _edge_case_tables(rng):
    """Random cdf tables built as the sampler builds them, with its edge cases mixed in."""
    d = int(rng.integers(1, 65))
    n_out = int(rng.integers(1, 9))

    def cdf_rows(rows, cols):
        p = rng.random((rows, cols))
        p[rng.random((rows, cols)) < 0.3] = 0.0  # zero-width bins
        p[rng.random((rows, cols)) < 0.1] = 1e-300
        dyadic = rng.random(rows) < 0.3
        p[dyadic] = rng.integers(0, 4, size=(int(dyadic.sum()), cols)) / 8.0
        totals = p.sum(axis=1, keepdims=True)
        p = np.divide(p, totals, out=np.zeros_like(p), where=totals > 0)
        cdf = np.cumsum(p, axis=1)
        if cols > 1:
            cdf[rng.random(rows) < 0.2, -2] = 1.0 + 2**-52  # a cumsum overshooting 1 by an ulp
        cdf[:, -1] = 1.0
        return cdf

    sum_cdf = cdf_rows(1, d)[0]
    cond_cdf = cdf_rows(d, n_out)
    cond_cdf[rng.random(d) < 0.2] = 1.0  # unpopulated rows of ones
    return sum_cdf, cond_cdf


@pytest.mark.parametrize("case", range(48))
def test_counts_match_float_reference(case, monkeypatch):
    rng = np.random.default_rng([2024, case])
    sum_cdf, cond_cdf = _edge_case_tables(rng)
    shots = int(rng.integers(1, 4000))
    monkeypatch.setattr(_kernels, "CHUNK_SHOTS", int(rng.integers(1, 700)))
    for seed in (0, 2**64 - 1, int(rng.integers(0, 2**63))):
        expected = reference_sample_counts(seed, shots, sum_cdf, cond_cdf)
        assert np.array_equal(sample_counts(seed, shots, sum_cdf, cond_cdf), expected), seed


def test_unsorted_row_selects_first_column_above_uniform():
    # the old gather picked the first column with u < cdf; the running maximum keeps that for any row
    sum_cdf = np.array([0.5, 1.0])
    cond_cdf = np.array([[0.9, 0.2, 1.0], [0.1, 0.6, 1.0]])
    counts = sample_counts(5, 5000, sum_cdf, cond_cdf)
    assert np.array_equal(counts, reference_sample_counts(5, 5000, sum_cdf, cond_cdf))
    assert counts[0, 1] == 0


@pytest.mark.parametrize("ulps, expected", [(0, (1, 1)), (1, (0, 0))])
def test_draw_landing_on_a_threshold_is_not_below_it(ulps, expected):
    # place both cdf thresholds of shot 0 exactly on its uniforms (or one ulp above)
    u_sum, u_cond = np.nextafter(_kernels.uniforms(11, 2), 2.0) if ulps else _kernels.uniforms(11, 2)
    sum_cdf = np.array([u_sum, 1.0])
    cond_cdf = np.array([[u_cond, 1.0], [u_cond, 1.0]])
    counts = sample_counts(11, 1, sum_cdf, cond_cdf)
    assert counts[expected] == 1
    assert np.array_equal(counts, reference_sample_counts(11, 1, sum_cdf, cond_cdf))


_SEEDS = (0, 2**64 - 1, 0x5DEECE66D)


def _assert_matches_reference(shots, sum_cdf, cond_cdf):
    for seed in _SEEDS:
        expected = reference_sample_counts(seed, shots, sum_cdf, cond_cdf)
        assert np.array_equal(sample_counts(seed, shots, sum_cdf, cond_cdf), expected), seed


def _dyadic_cdf(rng, outcomes, bits):
    """A cdf of ``outcomes`` entries, each a multiple of 2^-bits, repeats allowed, ending in 1.0."""
    cdf = np.sort(rng.integers(0, 2**bits, size=outcomes)) / 2.0**bits
    cdf[-1] = 1.0
    return cdf


def test_guide_flags_exactly_the_buckets_a_threshold_splits():
    # thresholds on a bucket's lowest integer leave it whole; one on its highest splits it
    edges = np.arange(17, dtype=np.uint64) << np.uint64(49)
    table = np.array([[0, edges[3], edges[5] - 1, edges[7] + 1, edges[7] + 5, 2**53]], dtype=np.uint64)
    assert np.flatnonzero(_kernels._guide(table, 4)[1]).tolist() == [4, 7]
    # row k's buckets follow row k - 1's, and its first index counts every threshold of the rows before it
    first, split = _kernels._guide(np.vstack([table, table]), 4)
    assert np.flatnonzero(split).tolist() == [4, 7, 20, 23]
    assert np.array_equal(first[16:], first[:16] + 6)


@pytest.mark.parametrize("case", range(4))
def test_guide_matches_binary_search_at_both_ends_of_each_bucket(case):
    # the oracle searches packed keys: row k offset by k * 2^53 makes one sorted table,
    # where bucket (k << bits) | c is bucket c of row k's span
    rng = np.random.default_rng([18, case])
    bits, rows, width = int(rng.integers(2, 9)), int(rng.integers(1, 6)), int(rng.integers(1, 30))
    edges = np.arange((1 << bits) + 1, dtype=np.uint64) << np.uint64(53 - bits)
    table = np.sort(np.concatenate([
        rng.choice(edges, (rows, width)),  # on a bucket's lowest integer, or at the very top
        rng.choice(edges[1:], (rows, width)) - np.uint64(1),  # on a bucket's highest integer
        rng.integers(0, 2**53, (rows, width), dtype=np.uint64, endpoint=True),
    ], axis=1))
    span = np.arange(rows, dtype=np.uint64)[:, None] * np.uint64(2**53)
    keys = (span + table).ravel()
    lowest, highest = (span + edges[:-1]).ravel(), (span + edges[1:] - np.uint64(1)).ravel()
    first, split = _kernels._guide(table, bits)
    assert np.array_equal(first, np.searchsorted(keys, lowest, side="right"))
    assert np.array_equal(split, first != np.searchsorted(keys, highest, side="right"))


def _table_bits(shots, sum_cdf, cond_cdf):
    """The (g, h) that ``sample_counts`` gives these tables."""
    d, n_out = np.shape(cond_cdf)
    sum_split = _kernels._split_counts(_kernels._thresholds(np.asarray(sum_cdf)), d - 1)
    cond_split = _kernels._split_counts(_kernels._thresholds(np.asarray(cond_cdf)), n_out - 1)
    return _kernels._cell_bits(sum_split, cond_split, shots)


def _generic_bits(d, n_out, shots):
    """The (g, h) of (D, N) tables whose every inner threshold lies deeper than the largest cell resolution."""
    depths = _kernels._MAX_CELL_BITS + 1
    return _kernels._cell_bits([d - 1] * depths, [n_out - 1] * depths, shots)


def _depth_cdf(rng, outcomes, bits):
    """A ``_dyadic_cdf`` whose entries before the last 1.0 include an odd multiple of 2^-bits when bits > 0."""
    cdf = _dyadic_cdf(rng, outcomes, bits)
    if bits and outcomes > 1:
        cdf[:-1] = np.sort(np.append(cdf[1:-1], 2.0**-bits))
    return cdf


@pytest.mark.parametrize(
    "sum_bits, cond_bits",
    [(0, 0), (1, 1), (2, 1), (1, 4), (4, 4), (0, 5), (6, 0), (12, 3), (3, 12), (12, 12)],
)
def test_thresholds_on_bucket_edges(sum_bits, cond_bits, monkeypatch):
    # a multiple of 2^-b sits on a bucket edge at b bits and more, so it buys no bits beyond b:
    # each level gets at most its thresholds' dyadic depth, and at that depth every cell is exact
    # and no shot is resolved one by one; deeper thresholds split cells, and both give the float counts
    rng = np.random.default_rng([18, sum_bits, cond_bits])
    d, n_out, shots = 5, 3, 3000
    limit = (shots // _kernels._SHOTS_PER_CELL).bit_length()
    sum_cdf = _depth_cdf(rng, d, sum_bits)
    cond_cdf = np.array([_depth_cdf(rng, n_out, cond_bits) for _ in range(d)])
    g, h = _table_bits(shots, sum_cdf, cond_cdf)
    assert g <= sum_bits and h <= cond_bits and g + h <= limit
    exact = sum_bits + cond_bits <= limit
    assert ((g, h) == (sum_bits, cond_bits)) == exact
    resolved = []
    resolve = _kernels._resolve
    monkeypatch.setattr(_kernels, "_resolve", lambda held, *args: resolved.append(held.shape[1]) or resolve(held, *args))
    _assert_matches_reference(shots, sum_cdf, cond_cdf)
    assert (sum(resolved) == 0) == exact


def test_split_counts_count_the_thresholds_deeper_than_each_resolution():
    # entry b counts the thresholds with a set bit below bit 53 - b, capped at the given most
    rng = np.random.default_rng(53)
    for case in range(40):
        rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        # an odd multiple of 2^(53 - e) has depth e; depth 0 stands for a threshold of 0 or 2^53
        depth = rng.integers(0, 54, (rows, width)).tolist()
        table = np.array(
            [[(2 * int(rng.integers(0, 2 ** (e - 1))) + 1) << (53 - e) if e else int(rng.integers(0, 2)) << 53 for e in row]
             for row in depth],
            dtype=np.uint64,
        )
        most = int(rng.integers(0, rows * width + 2))
        expected = [
            min(most, int(np.count_nonzero(table & np.uint64((1 << (53 - b)) - 1))))
            for b in range(_kernels._MAX_CELL_BITS + 1)
        ]
        assert _kernels._split_counts(table, most) == expected, case


def test_split_counts_of_a_pair_of_tables_are_each_tables_own():
    # sample_counts counts the sum and conditional tables in one pass; each keeps its own list and cap
    rng = np.random.default_rng(54)
    for case in range(60):
        d, width = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        sum_cdf = _depth_cdf(rng, d, int(rng.integers(0, 54)))
        cond_cdf = np.array([_depth_cdf(rng, width, int(rng.integers(0, 54))) for _ in range(d)])
        t_sum, t_cond = _kernels._thresholds(sum_cdf), _kernels._thresholds(cond_cdf)
        most = (int(rng.integers(0, d + 1)), int(rng.integers(0, d * width + 2)))
        pair = _kernels._split_counts((t_sum, t_cond), most)
        assert pair == [_kernels._split_counts(t_sum, most[0]), _kernels._split_counts(t_cond, most[1])], case


def _draws_of_shot(seed, shot):
    """The 53-bit integers m of shot ``shot``'s sum and first-factor draws."""
    return (int(m) for m in _kernels._draw_bits(seed, np.array([2 * shot + 1, 2 * shot + 2], dtype=np.uint64)))


@pytest.mark.parametrize("level", ["sum", "first-factor"])
@pytest.mark.parametrize("where", ["on-cell-floor", "on-draw", "above-draw"])
def test_threshold_on_a_cells_lowest_integer_or_inside_it(level, where):
    # a threshold on the lowest integer of shot 0's cell leaves the cell
    # exact; one on the draw itself, or one above it, splits the cell
    seed, shots, d, n_out = 0x5DEECE66D, 5000, 4, 3
    g, h = _generic_bits(d, n_out, shots)
    m_sum, m_cond = _draws_of_shot(seed, 0)
    m, bits = (m_sum, g) if level == "sum" else (m_cond, h)
    floor = m >> (53 - bits) << (53 - bits)
    t = {"on-cell-floor": floor, "on-draw": m, "above-draw": m + 1}[where]
    assert (t == floor) == (where == "on-cell-floor")  # shot 0 does not sit on its cell's floor
    c = t * 2.0**-53  # T(c) = t exactly
    sum_cdf, cond_cdf = np.array([0.25, 0.5, 0.75, 1.0]), np.tile([0.25, 0.5, 1.0], (d, 1))
    if level == "sum":
        sum_cdf = np.array([c / 2, c, (1.0 + c) / 2, 1.0])
    else:
        cond_cdf = np.tile([c / 2, c, 1.0], (d, 1))
    # the tables get other bits than generic ones, and t is still a cell edge at them exactly when on the floor
    table_bits = _table_bits(shots, sum_cdf, cond_cdf)[0 if level == "sum" else 1]
    assert (t % (1 << (53 - table_bits)) == 0) == (where == "on-cell-floor")
    _assert_matches_reference(shots, sum_cdf, cond_cdf)
    # shot 0 alone lands below t exactly when m < t
    index = 1 if m < t else 2
    counts = sample_counts(seed, 1, sum_cdf, cond_cdf)
    assert counts.sum() == 1
    assert (counts[index].sum() if level == "sum" else counts[:, index].sum()) == 1


@pytest.mark.parametrize("d, n_out", [(36, 8), (15, 8), (3, 3), (1, 2)])
def test_tables_at_the_largest_cell_resolution(d, n_out):
    # 70,000 shots let the cell table reach its 2^14 cells unless the split
    # bound is met sooner; every table is checked at the resolution picked
    shots = 70_000
    rng = np.random.default_rng([d, n_out])
    sum_cdf = np.cumsum(rng.random(d))
    sum_cdf /= sum_cdf[-1]
    sum_cdf[-1] = 1.0
    cond_cdf = np.cumsum(rng.random((d, n_out)), axis=1)
    cond_cdf /= cond_cdf[:, -1:]
    cond_cdf[:, -1] = 1.0
    g, h = _table_bits(shots, sum_cdf, cond_cdf)
    bound = (d - 1) / 2**g + (n_out - 1) / 2**h
    assert g + h == 14 or bound <= 2**-10
    assert g + h <= 14
    _assert_matches_reference(shots, sum_cdf, cond_cdf)


@pytest.mark.parametrize(
    "shots, chunk",
    [(1, None), (1, 1), (1, 617), (3 * 617 + 5, 1), (3 * 617 + 5, 617), ((1 << 14) + 7, 617), ((1 << 14) + 7, None)],
    ids=["one-shot", "one-shot-chunk-1", "one-shot-chunk-617", "ragged-chunk-1", "ragged-chunk-617",
         "ragged-default-chunk-617", "ragged-default"],
)
def test_shot_counts_across_batch_sizes(shots, chunk, monkeypatch):
    # D = 36, N = 8 tables leave many shots in split cells, so the held
    # shots fill up and are resolved between batches as well as at the end
    if chunk is not None:
        monkeypatch.setattr(_kernels, "CHUNK_SHOTS", chunk)
    rng = np.random.default_rng(3600 + shots)
    sum_cdf = np.cumsum(rng.random(36))
    sum_cdf /= sum_cdf[-1]
    sum_cdf[-1] = 1.0
    cond_cdf = np.cumsum(rng.random((36, 8)), axis=1)
    cond_cdf /= cond_cdf[:, -1:]
    cond_cdf[:, -1] = 1.0
    _assert_matches_reference(shots, sum_cdf, cond_cdf)


def test_cell_bits_stay_within_the_table_limits():
    # a level's split counts fall to 0 at its thresholds' dyadic depth e, where e = 15 stands for
    # thresholds deeper than any cell; it gets a bit exactly when it has an inner threshold, and never more than e
    depths = _kernels._MAX_CELL_BITS + 1
    for d in (1, 2, 5, 36, 2047, 2080):
        for n_out in (1, 2, 8, 64):
            for sum_depth in (0, 1, 3, depths) if d > 1 else (0,):
                for cond_depth in (0, 2, 7, depths) if n_out > 1 else (0,):
                    sum_split = [d - 1] * sum_depth + [0] * (depths - sum_depth)
                    cond_split = [n_out - 1] * cond_depth + [0] * (depths - cond_depth)
                    for shots in (1, 100, 10_000, 10**6, 10**9):
                        g, h = _kernels._cell_bits(sum_split, cond_split, shots)
                        case = (d, n_out, sum_depth, cond_depth, shots)
                        assert (g >= 1) == (sum_depth > 0) and (h >= 1) == (cond_depth > 0), case
                        assert g <= sum_depth and h <= cond_depth, case
                        assert g + h <= 14 and 1 << (g + h) <= max(4, shots // 4), case


def test_thresholds_at_zero_and_two_to_the_53():
    # T = 0 bins are never drawn; T = 2^53 before the last entry ends the cdf early
    sum_cdf = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
    cond_cdf = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [2**-53, 1.0, 1.0], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
    _assert_matches_reference(2000, sum_cdf, cond_cdf)
    counts = sample_counts(0, 2000, sum_cdf, cond_cdf)
    assert counts[:2].sum() == 0 and counts[4].sum() == 0
    assert counts[3, 0] == 0 and counts[2, 2] == 0


def test_many_thresholds_share_one_bucket():
    # 2079 thresholds within 2.08e-4 of each other, all in the top bucket, 2^-12 = 2.4e-4 wide
    d = 2080  # the sum lines of a generic A at N = 64
    p = np.full(d, 1e-7)
    p[0] = 1.0 - p[1:].sum()
    sum_cdf = np.cumsum(p)
    sum_cdf[-1] = 1.0
    cond_cdf = np.tile([0.5, 1.0], (d, 1))
    _assert_matches_reference(50000, sum_cdf, cond_cdf)
    assert sample_counts(0, 50000, sum_cdf, cond_cdf)[1:].sum() > 0  # some shots do land among them


@pytest.mark.parametrize("chunk", [1, 617, None], ids=["chunk-1", "chunk-617", "chunk-default"])
def test_most_sum_outcomes_with_eight_first_factor_outcomes(chunk, monkeypatch):
    rng = np.random.default_rng(2047)
    d, n_out = 2080, 8  # the sum lines of a generic A at N = 64
    sum_cdf = np.cumsum(rng.random(d))
    sum_cdf /= sum_cdf[-1]
    sum_cdf[-1] = 1.0
    cond_cdf = np.cumsum(rng.random((d, n_out)), axis=1)
    cond_cdf /= cond_cdf[:, -1:]
    cond_cdf[:, -1] = 1.0
    if chunk is not None:
        monkeypatch.setattr(_kernels, "CHUNK_SHOTS", chunk)
    _assert_matches_reference(1500, sum_cdf, cond_cdf)


def _bundled_tables(name, monkeypatch):
    """The (sum_cdf, cond_cdf) tables that ``lab.sample_chain`` passes the kernel for a bundled scenario."""
    sc = io.scenario_from_json(files("eprkit.scenarios").joinpath(f"{name}.json").read_text(encoding="utf-8"))
    tables = []
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "sample_counts", lambda *args: tables.append(args[2:]) or sample_counts(*args))
        lab.sample_chain(sc, 1, seed=0)
    return tables[0]


@pytest.mark.parametrize("name", ["spin_one", "pauli_epr"])
def test_memory_does_not_grow_with_shots(name, monkeypatch):
    # the batch buffers are at most 45 bytes per shot of one 2^14-shot batch, and the cell table at most 25 bytes
    # per cell of 2^14; one full-length array would be 16 MB
    tables = _bundled_tables(name, monkeypatch)
    assert _kernels.CHUNK_SHOTS == 1 << 14  # the bound below holds for this batch size
    tracemalloc.start()
    try:
        counts = sample_counts(7, 2_000_000, *tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2_000_000
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize(
    "sum_cdf, cond_cdf",
    [
        ([1.0], [[0.2, 1.0]]),  # pauli_epr's tables: the sum is certain, the first factor is drawn
        ([1.0], [[0.25, 0.75, 1.0]]),  # a dyadic row, whose thresholds sit on cell edges
        ([0.3, 0.5, 1.0], [[1.0], [1.0], [1.0]]),  # width 1: the sum is drawn, the first factor is certain
        ([1.0], [[1.0]]),  # nothing is drawn: every shot lands on the one index
        ([0.0, 1.0, 1.0], [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),  # nothing is drawn, among unreachable rows
        ([0.0, 0.0, 1.0], [[0.5, 1.0], [0.5, 1.0], [0.2, 1.0]]),  # a certain sum after two empty outcomes
        # a certain sum after 3,000 empty outcomes: about half the shots are held, and resolving them
        # leaves flat indices above 2^11 in the sum's held row, which any m of a certain sum survives
        (np.r_[np.zeros(3000), 1.0], np.r_[np.ones((3000, 2)), [[0.3, 1.0]]]),
    ],
    ids=["certain-sum", "certain-sum-dyadic-row", "width-1", "nothing-drawn", "nothing-drawn-unreachable-rows",
         "certain-last-sum", "certain-sum-held-flushes"],
)
@pytest.mark.parametrize("shots", [1, 3 * 617 + 5], ids=["one-shot", "ragged"])
@pytest.mark.parametrize("chunk", [1, 617, None], ids=["chunk-1", "chunk-617", "chunk-default"])
def test_levels_with_one_reachable_outcome(sum_cdf, cond_cdf, shots, chunk, monkeypatch):
    # a level whose thresholds are all 0 or 2^53 is not drawn; the other level's draws keep their numbers
    if chunk is not None:
        monkeypatch.setattr(_kernels, "CHUNK_SHOTS", chunk)
    _assert_matches_reference(shots, np.array(sum_cdf), np.array(cond_cdf))


@pytest.mark.parametrize(
    "tables, hashed",
    [
        ("pauli_epr", 1),
        ((np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])), 0),
        ("spin_one", 2),
    ],
    ids=["pauli_epr", "nothing-drawn", "spin_one"],
)
def test_only_drawn_levels_are_hashed(tables, hashed, monkeypatch):
    # splitmix64 runs on one draw per shot for pauli_epr's certain sum, on none when nothing is drawn
    if isinstance(tables, str):
        tables = _bundled_tables(tables, monkeypatch)
    sizes = []
    mix_head = _kernels._mix_head
    monkeypatch.setattr(_kernels, "_mix_head", lambda x, scratch: sizes.append(x.size) or mix_head(x, scratch))
    shots = 3 * _kernels.CHUNK_SHOTS + 5
    assert sample_counts(3, shots, *tables).sum() == shots
    assert sum(sizes) == hashed * shots
