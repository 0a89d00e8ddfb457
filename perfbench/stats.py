"""Percentiles with their sample counts."""

import math

# A tail percentile needs at least this many samples beyond it, or it rests
# on one or two outliers.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def beyond(n, q):
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def p50_or_zero(samples):
    """Median of ``samples``, 0.0 when the workload never reached the layer."""
    return float(percentile(samples, 50)) if samples else 0.0
