import numpy as np
import pytest

from eprkit import _kernels
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
    tail = _kernels.uniforms(7, 40, offset=60)
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


def test_rejects_sum_outcomes_beyond_joint_keys():
    # (sum index << 53) | m must fit in 64 bits
    d = _kernels.MAX_SUM_OUTCOMES
    sum_cdf = np.linspace(1.0 / d, 1.0, d)
    sum_cdf[-1] = 1.0
    assert sample_counts(3, 1000, sum_cdf, np.ones((d, 1))).sum() == 1000
    with pytest.raises(ValueError):
        sample_counts(3, 1000, np.append(sum_cdf / 2, 1.0), np.ones((d + 1, 1)))


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
