"""Small numeric helpers shared by the runner and the comparer."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def quantile_hd(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the *q*-quantile (``q`` in (0, 1)).

    A weighted mean of all order statistics, with the weights of a
    Beta((n+1)q, (n+1)(1-q)) distribution over the ranks, so it moves
    smoothly where a single order statistic jumps between clusters
    (service latencies bunch at multiples of the server's poll tick).
    """
    data = sorted(values)
    n = len(data)
    if n < 2:
        if not data:
            raise ValueError("quantile of no values")
        return data[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32
    weights = []
    for i in range(n):
        # Midpoint rule over the rank interval [i/n, (i+1)/n].
        total = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            total += math.exp((a - 1) * math.log(x)
                              + (b - 1) * math.log1p(-x) - log_norm)
        weights.append(total)
    norm = sum(weights)
    return sum(w * v for w, v in zip(weights, data)) / norm


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median
    (``statistics.quantiles(values, n=4)``); 0 for fewer than 2."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def merged_counters(stats_dicts: Iterable[Dict[str, float]]
                    ) -> Dict[str, float]:
    """``cdcl.<field>`` totals over solver stats dicts, merged with the
    program's own :meth:`SolverStats.merge` rules (occupancy fields
    keep the maximum, counters sum)."""
    from repro.solvers.result import SolverStats
    total = SolverStats()
    for payload in stats_dicts:
        total.merge(SolverStats.from_dict(payload))
    return {f"cdcl.{key}": value for key, value in total.as_dict().items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)}


def group_by(records: List[dict], key: str) -> Dict[str, List[dict]]:
    """*records* grouped by ``record[key]``, in first-seen order."""
    groups: Dict[str, List[dict]] = {}
    for record in records:
        groups.setdefault(record[key], []).append(record)
    return groups
