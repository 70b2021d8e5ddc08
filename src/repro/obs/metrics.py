"""Metric instruments for the observability layer.

Three instrument kinds cover what the simulator needs to report:

* :class:`Counter` — a monotonically increasing total (messages sent,
  bytes carried, contention stalls).
* :class:`Gauge` — a last-value-wins sample that also remembers its
  maximum (event-queue depth, in-flight requests).
* :class:`Histogram` — power-of-two bucketed counts (message sizes).

All instruments live in a :class:`MetricsRegistry`, are created on
first use, and serialize to a flat, deterministic dict for the metrics
JSON exporter.  Everything is simulation-state only — no wall clock,
no host entropy — so repeated runs produce identical metric dumps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A sampled value; remembers the latest and the maximum sample."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self.max: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Power-of-two bucketed counts (bucket = floor(log2(v)), -1 for 0)."""

    __slots__ = ("name", "buckets", "count", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total: Union[int, float] = 0

    def observe(self, value: Union[int, float]) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r} got negative value")
        bucket = -1 if value == 0 else int(math.log2(value))
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value

    def items(self) -> List[Tuple[int, int]]:
        """(bucket, count) pairs in ascending bucket order."""
        return sorted(self.buckets.items())


class MetricsRegistry:
    """Create-on-first-use home of every instrument in one run."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def to_dict(self) -> dict:
        """A deterministic, JSON-ready snapshot of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": g.value, "max": g.max}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "buckets": {str(b): n for b, n in h.items()},
                }
                for name, h in sorted(self._histograms.items())
            },
        }
