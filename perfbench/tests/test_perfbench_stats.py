import pytest

from stats import MIN_BEYOND, beyond, p50_or_zero, percentile


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7], 50) == 7
    assert percentile([3, 1, 2], 50) == 2  # order of input does not matter


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_beyond_counts_samples_above_the_percentile():
    assert beyond(100, 99) == 1
    assert beyond(1000, 99) == 10
    assert beyond(1, 99) == 0


def test_a_p99_needs_a_thousand_samples():
    assert beyond(999, 99) < MIN_BEYOND <= beyond(1000, 99)
    assert percentile(list(range(1000)), 99) == 989


def test_p50_or_zero_for_an_unreached_layer():
    assert p50_or_zero([]) == 0.0
    assert p50_or_zero([4, 1, 9]) == 4.0
