"""Latency summaries: nearest-rank percentiles and the tail rule."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_BEYOND = 10

#: The highest tail reported.  Past p99 a shared two-core host's
#: scheduler noise moves the figure more than the program does.
TAIL_CAP = 99.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of unsorted ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with >= 10 samples beyond it, capped at p99.

    That is ``100 * (1 - 10 / count)``, the 11th-slowest sample: p99 needs
    1000 samples, p95 200, p90 100.  ``None`` below 20 samples, where even
    the median would have fewer than 10 beyond it.
    """
    if count < 2 * TAIL_BEYOND:
        return None
    return min(TAIL_CAP, 100.0 * (1.0 - TAIL_BEYOND / count))


def summarize(samples_ms: Sequence[float]) -> Dict[str, object]:
    """``{count, p50_ms, tail_pct, tail_ms}`` of one latency population."""
    count = len(samples_ms)
    out: Dict[str, object] = {"count": count}
    if count:
        out["p50_ms"] = percentile(samples_ms, 50.0)
    pct = tail_percentile(count)
    if pct is not None:
        out["tail_pct"] = pct
        out["tail_ms"] = percentile(samples_ms, pct)
    return out
