"""Small statistics helpers shared by the workloads and the tests."""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, List, Sequence

import numpy as np
from scipy.special import betainc

#: Percentiles are only reported with at least this many samples
#: strictly beyond them.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Plain sample median (set-up repeats, calibration samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (``0 < q < 100``).

    A weighted mean of all order statistics with Beta weights centred
    on the percentile. Op times cluster by op kind with gaps between
    the clusters; the nearest-rank value jumps across a gap when one
    op moves, while this estimate moves smoothly.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    if n == 0:
        raise ValueError("percentile of no values")
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the ``q``-th percentile's nearest rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


def p90_supported(n: int) -> bool:
    return beyond(n, 90) >= MIN_BEYOND


def digest(chunks: Iterable[str]) -> str:
    """SHA-256 over length-prefixed UTF-8 chunks (order matters)."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        data = chunk.encode("utf-8")
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    return hasher.hexdigest()


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
