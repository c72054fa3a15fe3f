"""Measurement primitives: counters, gauge series, throughput meters.

Experiments never read raw kernel state; they publish into a
:class:`StatsRegistry` that the bench harness renders into the paper's
rows/series.  Every registry distribution is a constant-memory
:class:`~repro.obs.sketch.QuantileSketch`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Series", "ThroughputMeter", "StatsRegistry"]

if False:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.sketch import QuantileSketch


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Series:
    """An append-only time-indexed gauge (sampler output).

    Each point is ``(simulated_time, value)``; the observability sampler
    appends one point per gauge per tick.  A cap guards runaway runs, with
    the overflow counted in ``dropped``.
    """

    def __init__(self, name: str, max_points: int = 1_000_000):
        self.name = name
        self.max_points = max_points
        self._times: List[float] = []
        self._values: List[float] = []
        self.dropped = 0

    def append(self, time: float, value: float) -> None:
        if len(self._times) >= self.max_points:
            self.dropped += 1
            return
        self._times.append(float(time))
        self._values.append(float(value))

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


class ThroughputMeter:
    """Counts completions between mark() calls; reports ops/second.

    Used exactly like mdtest uses phase timers: ``start()`` at the phase
    barrier, ``record()`` per completed op, ``stop()`` at the closing
    barrier, then ``ops_per_second()``.
    """

    def __init__(self, name: str):
        self.name = name
        self.ops = 0
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    def start(self, now: float) -> None:
        self._started_at = now
        self._stopped_at = None
        self.ops = 0

    def record(self, n: int = 1) -> None:
        self.ops += n

    def stop(self, now: float) -> None:
        self._stopped_at = now

    @property
    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        end = self._stopped_at
        if end is None:
            raise RuntimeError(f"meter {self.name!r} not stopped")
        return end - self._started_at

    def elapsed_at(self, now: Optional[float] = None) -> float:
        """Total, never-throwing elapsed time.

        A running meter reports against ``now`` when given, else 0.0 — so
        an export-time snapshot of a registry with one still-running meter
        cannot poison the whole export (unlike :attr:`elapsed`, which is
        strict and raises).
        """
        if self._started_at is None:
            return 0.0
        end = self._stopped_at
        if end is None:
            if now is None:
                return 0.0
            return max(0.0, now - self._started_at)
        return end - self._started_at

    def ops_per_second(self, now: Optional[float] = None) -> float:
        elapsed = self.elapsed_at(now)
        if elapsed <= 0:
            return 0.0
        return self.ops / elapsed


class StatsRegistry:
    """A flat namespace of counters/histograms/meters for one experiment."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._meters: Dict[str, ThroughputMeter] = {}
        self._series: Dict[str, Series] = {}
        self._sketches: Dict[str, "QuantileSketch"] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> "QuantileSketch":
        """Every registry distribution is a quantile sketch."""
        return self.sketch(name)

    def meter(self, name: str) -> ThroughputMeter:
        m = self._meters.get(name)
        if m is None:
            m = self._meters[name] = ThroughputMeter(name)
        return m

    def series(self, name: str) -> Series:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = Series(name)
        return s

    def sketch(self, name: str) -> "QuantileSketch":
        """Constant-memory quantile sketch (latency recording hot path).

        Imported lazily: :mod:`repro.obs.sketch` lives in the package that
        itself imports this module at init time.
        """
        s = self._sketches.get(name)
        if s is None:
            from repro.obs.sketch import QuantileSketch
            s = self._sketches[name] = QuantileSketch(name)
        return s

    def counters(self) -> Dict[str, int]:
        return {k: v.value for k, v in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Dict[str, float]]:
        """Summary of every distribution (the export's ``histograms``)."""
        return {k: v.summary() for k, v in sorted(self._sketches.items())}

    def sketches(self) -> Dict[str, "QuantileSketch"]:
        return dict(self._sketches)

    def sketch_exports(self) -> Dict[str, Dict[str, Any]]:
        """Full bucket-level sketch state, stably ordered."""
        return {k: v.export() for k, v in sorted(self._sketches.items())}

    def meters(self, now: Optional[float] = None) -> Dict[str, float]:
        """Snapshot every meter; running meters report 0.0 (or against
        ``now``) instead of raising, so one unstopped meter cannot poison
        the whole export."""
        return {k: v.ops_per_second(now)
                for k, v in sorted(self._meters.items())}

    def series_export(self) -> Dict[str, Dict[str, Any]]:
        return {k: v.export() for k, v in sorted(self._series.items())}

    def merge_counters(self, names: Iterable[str]) -> int:
        return sum(self._counters[n].value for n in names
                   if n in self._counters)
