"""Deterministic metrics registry: counters, gauges, histograms.

Everything the system counts flows through one
:class:`MetricsRegistry`: reports crawled per source, entities per
type, journal bytes, checkpoint durations.  Design constraints:

* **Determinism.**  Counters and gauges are plain integer/float updates
  under one lock; identical seeded runs produce identical snapshots for
  every integer-valued series (histogram *sums* of measured durations
  are only as deterministic as the clock that produced them).
* **Fixed buckets.**  Every histogram uses the one bucket ladder
  :data:`DEFAULT_BUCKETS` -- no dynamic resizing, so bucket boundaries
  in two snapshots are always comparable.
* **Label keys.**  A series is keyed by its sorted ``k=v`` label string
  (``source=ThreatPedia``); the empty string keys the unlabelled
  series.
* **Snapshots.**  :meth:`snapshot` returns a JSON-safe, sorted, nested
  dict -- the payload of ``SystemReport.metrics``, ``--metrics`` and
  the ``/metrics`` endpoint.

The default everywhere is :data:`NULL_METRICS`, whose updates are
no-ops, so instrumented hot paths cost one method call when
observability is off.
"""

from __future__ import annotations

import threading

from repro.runtime.locks import named_lock

#: Every histogram's bucket upper bounds (seconds); +Inf is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0)


def label_key(labels: dict) -> str:
    """Canonical series key: sorted ``k=v`` pairs joined by commas."""
    return ",".join(f"{key}={labels[key]}" for key in sorted(labels))


class _Histogram:
    __slots__ = ("counts", "count", "total")

    def __init__(self):
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)  # last slot = +Inf
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        slot = len(DEFAULT_BUCKETS)
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                slot = index
                break
        self.counts[slot] += 1
        self.count += 1
        self.total += value

    def to_dict(self) -> dict:
        buckets = {
            str(bound): self.counts[index]
            for index, bound in enumerate(DEFAULT_BUCKETS)
        }
        buckets["+Inf"] = self.counts[-1]
        return {"buckets": buckets, "count": self.count, "sum": self.total}


class MetricsRegistry:
    """Thread-safe named counters, gauges and fixed-bucket histograms."""

    enabled = True

    def __init__(self):
        self._lock = named_lock("obs.metrics")
        self._counters: dict[str, dict[str, int]] = {}
        self._gauges: dict[str, dict[str, float]] = {}
        self._histograms: dict[str, dict[str, _Histogram]] = {}

    def inc(self, name: str, value: int = 1, **labels) -> None:
        """Add to a counter (zero increments are dropped)."""
        if not value:
            return
        key = label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge to the latest observed value."""
        key = label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = value

    def max_gauge(self, name: str, value: float, **labels) -> None:
        """Raise a high-water-mark gauge (never lowers it)."""
        key = label_key(labels)
        with self._lock:
            series = self._gauges.setdefault(name, {})
            if value > series.get(key, float("-inf")):
                series[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record a sample into a fixed-bucket histogram."""
        key = label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram()
            histogram.observe(value)

    # -- readout ----------------------------------------------------------

    def counter(self, name: str, **labels) -> int:
        """Current value of one counter series (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all of its label series."""
        with self._lock:
            return sum(self._counters.get(name, {}).values())

    def names(self) -> list[str]:
        """Sorted names of every metric that has recorded data."""
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> dict:
        """JSON-safe sorted snapshot of every series."""
        with self._lock:
            return {
                "counters": {
                    name: dict(sorted(series.items()))
                    for name, series in sorted(self._counters.items())
                },
                "gauges": {
                    name: dict(sorted(series.items()))
                    for name, series in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        key: histogram.to_dict()
                        for key, histogram in sorted(series.items())
                    }
                    for name, series in sorted(self._histograms.items())
                },
            }


class NullMetrics:
    """Disabled metrics: every update is a no-op."""

    enabled = False
    __slots__ = ()

    def inc(self, name: str, value: int = 1, **labels) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels) -> None:
        return None

    def max_gauge(self, name: str, value: float, **labels) -> None:
        return None

    def observe(self, name: str, value: float, **labels) -> None:
        return None

    def counter(self, name: str, **labels) -> int:
        return 0

    def counter_total(self, name: str) -> int:
        return 0

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "label_key",
]
