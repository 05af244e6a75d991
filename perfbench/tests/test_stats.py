"""Percentile selection with at least ten samples beyond."""

import pytest

from stats import (
    beyond,
    digest,
    median,
    p90_supported,
    percentile,
)


def test_p90_needs_a_hundred_samples():
    assert beyond(100, 90) == 10
    assert p90_supported(100)
    assert not p90_supported(99)


def test_harrell_davis_percentile_and_median():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert 89 < percentile(values, 90) < 92
    assert percentile([7.0] * 20, 90) == pytest.approx(7.0)
    # Smooth across a gap: one value crossing it moves the estimate
    # a little, never by the whole gap.
    low, high = [1.0] * 50 + [2.0] * 50, [1.0] * 49 + [2.0] * 51
    assert 0 < percentile(high, 50) - percentile(low, 50) < 0.2
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def test_digest_is_order_and_boundary_sensitive():
    assert digest(["ab", "c"]) != digest(["a", "bc"])
    assert digest(["a", "b"]) != digest(["b", "a"])
    assert digest(["a", "b"]) == digest(["a", "b"])
