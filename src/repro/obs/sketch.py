"""The metric store behind one hub: quantile sketches, gauge series, counters.

A :class:`StatsRegistry` is the flat name → metric store of one
:class:`~repro.obs.hub.MetricsHub`: the hub's recorders publish into it
and its export reads it back in sorted order.  Counters are plain ints,
gauges are append-only :class:`Series`, and every distribution is a
constant-memory :class:`QuantileSketch` (HDR-style log buckets).

Keeping every raw sample grows without bound with the number of
observations — one per client op, commit and served read.  The sketch
replaces the sample list with log-spaced buckets:

* bucket ``i`` covers the value range ``[growth**i, growth**(i+1))``, so
  memory is O(log(max/min)) regardless of sample count and every
  percentile query carries a bounded *relative* error of at most
  ``growth - 1`` (5% at the default growth of 1.05);
* ``count``/``sum``/``min``/``max`` are tracked exactly, so means and
  extrema never degrade;
* values ``<= 0`` land in a dedicated zero bucket (simulated latencies
  are non-negative; a zero is a same-instant observation, not an error);
* sketches with the same growth merge by bucket-count addition, which is
  associative and commutative — region-level sketches roll up into
  fleet-level ones without reordering error.

Everything is pure Python over a plain dict; exports use string bucket
keys so ``json.dumps(..., sort_keys=True)`` stays byte-stable run to run.
"""

from __future__ import annotations

from math import floor, log
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["QuantileSketch", "DEFAULT_GROWTH", "Series", "StatsRegistry",
           "append_row"]

#: Default bucket growth factor; relative quantile error <= growth - 1.
DEFAULT_GROWTH = 1.05


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch with exact count/sum/min/max."""

    __slots__ = ("name", "growth", "_inv_log_growth", "count", "total",
                 "zero_count", "_min", "_max", "_buckets")

    def __init__(self, name: str = "", growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.name = name
        self.growth = growth
        self._inv_log_growth = 1.0 / log(growth)
        self.count = 0
        self.total = 0.0
        self.zero_count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: bucket index -> observation count (indices may be negative).
        self._buckets: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation of ``value``."""
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        idx = floor(log(value) * self._inv_log_growth)
        # Float rounding can land an exact power of growth one bucket low;
        # nudge up so the bucket invariant low <= value < high holds.
        if self.growth ** (idx + 1) <= value:
            idx += 1
        buckets = self._buckets
        buckets[idx] = buckets.get(idx, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (bucket-count addition)."""
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge sketches with growth {other.growth} into"
                f" {self.growth}")
        self.count += other.count
        self.total += other.total
        self.zero_count += other.zero_count
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        return self

    # -- queries -------------------------------------------------------------
    @property
    def min(self) -> float:
        return 0.0 if self._min is None else self._min

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` (0-100), within ``growth - 1`` relative
        error; exact at the extremes (min/max are tracked exactly)."""
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        seen = self.zero_count
        if rank <= seen:
            return max(0.0, self.min)
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if rank <= seen:
                # Geometric midpoint of the bucket, clamped to the exact
                # observed range so p0/p100 never overshoot min/max.
                mid = self.growth ** (idx + 0.5)
                return min(self.max, max(self.min, mid))
        return self.max

    def summary(self) -> Dict[str, float]:
        """count/mean/p50/p95/p99/max (the export's ``histograms`` keys)."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    # -- (de)serialization ---------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """JSON-stable full state (string bucket keys sort bytewise)."""
        return {
            "growth": self.growth,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "zero": self.zero_count,
            "buckets": {str(idx): n
                        for idx, n in sorted(self._buckets.items())},
        }

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (f"QuantileSketch({self.name}: count={self.count}"
                f" buckets={len(self._buckets)})")


class Series:
    """An append-only time-indexed gauge (sampler output).

    Each point is ``(simulated_time, value)``, kept as two parallel float
    lists; the observability sampler adds one point per gauge per tick
    (:func:`append_row`), so ``t`` ascends.  A cap guards runaway runs,
    with the overflow counted in ``dropped``.
    """

    __slots__ = ("name", "max_points", "_times", "_values", "dropped")

    def __init__(self, name: str, max_points: int = 1_000_000):
        self.name = name
        self.max_points = max_points
        self._times: List[float] = []
        self._values: List[float] = []
        self.dropped = 0

    def append(self, time: float, value: float) -> None:
        append_row((self,), time, (value,))

    def __len__(self) -> int:
        return len(self._times)

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def last(self) -> Optional[Tuple[float, float]]:
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def export(self) -> Dict[str, Any]:
        return {"t": list(self._times), "v": list(self._values),
                "dropped": self.dropped}


def append_row(series: Sequence[Series], time: float,
               values: Iterable[float]) -> None:
    """Add the point ``(time, value)`` to each of ``series``, paired with
    ``values`` in order — one sampler tick in one call.  A series at its
    ``max_points`` cap counts the point in ``dropped`` instead."""
    time = float(time)
    for s, value in zip(series, values):
        if len(s._times) >= s.max_points:
            s.dropped += 1
        else:
            s._times.append(time)
            s._values.append(float(value))


class StatsRegistry:
    """A flat namespace of counters/series/sketches for one experiment."""

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._series: Dict[str, Series] = {}
        self._sketches: Dict[str, QuantileSketch] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonically increasing count ``name``."""
        self._counters[name] = self._counters.get(name, 0) + n

    def series(self, name: str) -> Series:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = Series(name)
        return s

    def sketch(self, name: str) -> QuantileSketch:
        """Constant-memory quantile sketch (latency recording hot path)."""
        s = self._sketches.get(name)
        if s is None:
            s = self._sketches[name] = QuantileSketch(name)
        return s

    def counters(self) -> Dict[str, int]:
        return dict(sorted(self._counters.items()))

    def histograms(self) -> Dict[str, Dict[str, float]]:
        """Summary of every distribution (the export's ``histograms``)."""
        return {k: v.summary() for k, v in sorted(self._sketches.items())}

    def sketches(self) -> Dict[str, QuantileSketch]:
        return dict(self._sketches)

    def series_export(self) -> Dict[str, Dict[str, Any]]:
        return {k: v.export() for k, v in sorted(self._series.items())}
