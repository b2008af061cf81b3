"""Process-local metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe, get-or-create map from metric
name to instrument.  Instruments are allocation-light on the hot path —
``Counter.inc`` and ``Histogram.observe`` are an integer add (plus a
bisect for histograms) under a per-instrument lock, with no per-call
allocation — so the registry can sit inside the engine decode loop.

Counters are **monotonic by construction**: they expose no reset and
reject negative increments, so any ratio or rate derived from two
snapshots is meaningful even across cache clears (see the counter-reset
semantics of :meth:`repro.serving.cache.LruCache.clear`).

Histograms use fixed upper-bound buckets (Prometheus-style) and report
percentiles by linear interpolation inside the selected bucket, clamped
to the observed min/max.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.errors import ObservabilityError


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` geometric upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ObservabilityError(
            f"need start > 0, factor > 1, count >= 1; got {start}, {factor}, {count}"
        )
    return tuple(start * factor**i for i in range(count))


def linear_buckets(start: float, width: float, count: int) -> tuple[float, ...]:
    """``count`` evenly spaced upper bounds: start, start+width, ..."""
    if width <= 0 or count < 1:
        raise ObservabilityError(f"need width > 0, count >= 1; got {width}, {count}")
    return tuple(start + width * i for i in range(count))


#: 100 microseconds to ~26 seconds, doubling — covers everything from a
#: single decode step on a tiny model to a full training epoch.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(0.0001, 2.0, 19)


class Counter:
    """A monotonically increasing integer-or-float total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (e.g. in-flight requests)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket whose upper edge is the
    observed maximum.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_total", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None):
        self.name = name
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ObservabilityError(f"histogram {name}: needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"histogram {name}: duplicate bucket bounds")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def bucket_counts(self) -> list[tuple[float, int]]:
        """(upper bound, count) pairs; the overflow bound is +inf."""
        with self._lock:
            edges = list(self.bounds) + [float("inf")]
            return list(zip(edges, list(self._counts)))

    def percentile(self, p: float) -> float:
        """The p-th percentile, interpolated within its bucket."""
        if not 0 <= p <= 100:
            raise ObservabilityError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1.0, (p / 100.0) * self._count)
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= rank:
                    lower = self.bounds[index - 1] if index >= 1 else self._min
                    upper = self.bounds[index] if index < len(self.bounds) else self._max
                    fraction = (rank - previous) / bucket_count
                    value = lower + fraction * (upper - lower)
                    return min(max(value, self._min), self._max)
            return self._max  # unreachable unless rounding starves the walk

    def summary(self) -> dict:
        """count / mean / min / max / p50 / p90 / p99 snapshot."""
        with self._lock:
            count = self._count
            if count == 0:
                return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p90": 0.0, "p99": 0.0}
            mean = self._total / count
            observed_min, observed_max = self._min, self._max
        return {
            "count": count,
            "mean": mean,
            "min": observed_min,
            "max": observed_max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Thread-safe get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ObservabilityError(
                        f"metric {name!r} is a {type(existing).__name__}, not a {kind.__name__}"
                    )
                return existing
            created = factory()
            self._metrics[name] = created
            return created

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, buckets))

    def instruments(self) -> dict[str, Counter | Gauge | Histogram]:
        """Shallow snapshot of name -> instrument (for exporters)."""
        with self._lock:
            return dict(self._metrics)

    def snapshot(self) -> dict:
        """JSON-ready view: counters, gauges, histogram summaries."""
        with self._lock:
            metrics = dict(self._metrics)
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
