"""The benchmark's arithmetic: per-item times, percentiles, failures.

Kept apart from the runner so the tests can check it directly.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    ordered = sorted(samples)
    # The epsilon keeps float rounding from bumping an exact rank up.
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def highest_percentile(n: int, wanted: float = 95.0,
                       min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest percentile <= ``wanted`` that leaves ``min_beyond`` of
    ``n`` samples above its nearest rank, or None if even the median
    would not.

    The nearest rank ``ceil(pct * n / 100)`` is at most ``n - min_beyond``
    exactly when ``pct <= 100 * (n - min_beyond) / n``.
    """
    if n <= 0:
        return None
    pct = min(wanted, 100.0 * (n - min_beyond) / n)
    return pct if pct >= 50.0 else None


def tail_latency(samples: Sequence[float],
                 wanted: float = 95.0) -> Tuple[str, float]:
    """``(label, value)`` of the reportable tail: the ``wanted``
    percentile when enough samples exist, a lower one when fewer do, and
    the maximum when there are too few for even the median."""
    pct = highest_percentile(len(samples), wanted)
    if pct is None:
        return f"max of {len(samples)}", max(samples)
    return f"p{pct:.3g} of {len(samples)}", nearest_rank(samples, pct)


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones (0 when nothing ran)."""
    return failed / attempted if attempted else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def item_medians(samples: Dict[str, List[Tuple[float, ...]]],
                 field: int) -> Dict[str, float]:
    """Per-item median of one field of the samples over the passes."""
    return {name: statistics.median(sample[field] for sample in times)
            for name, times in samples.items()}


def summarize(times: Dict[str, float], points: Dict[str, int],
              instructions: int) -> Dict[str, float]:
    """End-to-end timing metrics from per-item host seconds.

    ``wall_s`` is the work list's host time (the sum over its items),
    ``point_max_s`` the slowest point (items grouped by ``points``), and
    the case latencies are taken over the items.
    """
    wall = sum(times.values())
    per_point: Dict[int, float] = {}
    for name, seconds in times.items():
        per_point[points[name]] = per_point.get(points[name], 0.0) + seconds
    latencies = list(times.values())
    _label, tail = tail_latency(latencies)
    return {
        "wall_s": wall,
        "sim_insns_per_s": instructions / wall,
        "cases_per_s": len(times) / wall,
        "point_max_s": max(per_point.values()),
        "case_p50_ms": 1000.0 * statistics.median(latencies),
        "case_p95_ms": 1000.0 * tail,
    }
