import numpy as np
import pytest

from eprkit._kernels import sample_counts, sampling_py


@pytest.fixture
def simple_tables():
    sum_cdf = np.array([0.25, 0.75, 1.0])
    cond_cdf = np.array([[1.0, 1.0], [0.5, 1.0], [0.2, 1.0]])
    return sum_cdf, cond_cdf


def test_uniforms_are_in_unit_interval():
    u = sampling_py.uniforms(12345, 10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_uniforms_are_counter_based():
    # any slice of the stream can be regenerated independently
    whole = sampling_py.uniforms(7, 100)
    tail = sampling_py.uniforms(7, 40, offset=60)
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
        sampling_py.sample_counts(0, 10, np.array([1.0]), np.array([[0.5, 1.0], [0.5, 1.0]]))


def test_chunked_accumulation_matches_unchunked(simple_tables, monkeypatch):
    # force a tiny batch size so one call crosses many chunk boundaries
    reference = sampling_py.sample_counts(77, 10000, *simple_tables)
    monkeypatch.setattr(sampling_py, "CHUNK_SHOTS", 617)
    chunked = sampling_py.sample_counts(77, 10000, *simple_tables)
    assert np.array_equal(reference, chunked)
