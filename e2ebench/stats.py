"""Row statistics: every timing is taken per program row, then rows are
combined by geometric mean — never one quantile over a pool of mixed
programs, whose composition would shift from run to run.

``p50`` is the geometric mean of the row medians.  ``tail`` is ``p50``
times the highest percentile that has at least :data:`TAIL_BEYOND`
samples beyond it, taken over the *row-normalised* samples: each sample
divided by its own row's median, so every row enters as a ratio to its
typical cost.  A run gives a row only a dozen or so samples, too few for
a tail of its own, but the pooled ratios of all rows are plenty.

The ``cold`` workload samples each row only once or twice per run, so a
row's median is no reference there; its samples are divided by ``p50``
instead (``normalise="p50"``), which is sound because a cold start costs
about the same whatever the program.  Its pool is small, so its tail
percentile is low; the percentile and the sample count are reported
beside every tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def row_summary(rows: Mapping[str, Sequence[float]], normalise: str = "row") -> Dict[str, object]:
    """Combine per-row samples into ``p50``/``tail`` plus bookkeeping.

    Rows with no samples are an error: the caller deals rows like a
    deck, so an empty row means the run measured nothing for it.
    """
    empty = [name for name, xs in rows.items() if not xs]
    if empty or not rows:
        raise ValueError(f"rows without samples: {empty or 'all'}")
    medians = {name: statistics.median(xs) for name, xs in rows.items()}
    p50 = geomean(medians.values())
    ratios = sorted(
        x / (medians[name] if normalise == "row" else p50)
        for name, xs in rows.items() for x in xs
    )
    n = len(ratios)
    idx = max(0, n - TAIL_BEYOND - 1)
    return {
        "p50": p50,
        "tail": p50 * ratios[idx],
        "tail_percentile": round(100.0 * (idx + 1) / n, 2),
        "samples": n,
        "fewest_row_samples": min(len(xs) for xs in rows.values()),
        "rows": len(rows),
        "row_medians": medians,
    }


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
