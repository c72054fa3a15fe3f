"""Measurement primitives: counters, gauge series, quantile sketches.

A :class:`StatsRegistry` is the flat name → metric store behind one
:class:`~repro.obs.hub.MetricsHub`: the hub's recorders publish into it
and its export reads it back in sorted order.  Every registry
distribution is a constant-memory
:class:`~repro.obs.sketch.QuantileSketch`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Series", "StatsRegistry"]

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


class StatsRegistry:
    """A flat namespace of counters/series/sketches for one experiment."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, Series] = {}
        self._sketches: Dict[str, "QuantileSketch"] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

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

    def series_export(self) -> Dict[str, Dict[str, Any]]:
        return {k: v.export() for k, v in sorted(self._series.items())}
