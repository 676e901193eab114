"""The one percentile every latency report uses."""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (``0 <= q <= 1``), 0.0 when empty.

    Interpolates linearly between the two nearest ranks, as numpy's
    default ``linear`` method does: on ``[1, 2, 3, 4]``, ``q = 0.5``
    gives 2.5.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
