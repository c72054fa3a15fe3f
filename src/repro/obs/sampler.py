"""Periodic gauge sampling as a simulation process.

A :class:`GaugeSampler` wakes every ``interval`` simulated seconds and
records point-in-time gauges for one region into the hub's registry:

* ``queue.depth[<queue>]`` — per-node commit-queue backlog,
* ``queue.backlog[<region>]`` — region-wide backlog total,
* ``cache.used_bytes[<region>]`` — bytes held by the distributed cache,
* ``cache.hit_rate[<region>]`` — cumulative cache hit rate,
* ``consistency.pending_age[<region>]`` — age of the region's oldest
  published-but-unresolved mutation (0 when fully converged): the
  instantaneous staleness exposure the SLO engine windows over
  fault/recovery phases,
* ``commit.stall_age[<region>]`` — how long the region's commit
  pipeline has made *zero* resolution progress (no op committed,
  discarded, or coalesced) while published work is outstanding; 0
  whenever the pipeline is idle or advancing.  A loaded-but-frozen
  pipeline is the signature of an MDS outage, a partition, or a stuck
  barrier, and is what the incident detector keys on,
* ``client.error_rate[<region>]`` — failed client ops since the
  previous sample (hub-wide total): the availability lens that
  surfaces crashed nodes and partitions clients actually hit,
* ``resource.util[<name>]`` — *windowed* time-weighted utilization of
  each resource handed to the sampler (node CPUs/NICs, worker pools):
  busy slot-seconds accumulated since the previous sample divided by
  window × capacity, so bursts show up instead of being averaged away.

Sampling is batched: every gauge's series is resolved once (at
construction, on first sight of a queue, or when a resource is tracked),
so a wakeup reads O(1) accessors and hands one row of values to
:func:`~repro.obs.sketch.append_row`, with no per-sample key
formatting, registry lookup or per-point call.

The sampler only *reads* state and never yields anything but its own
sleep, so it cannot perturb the simulated timing of the system under
test.  It exits on its own once the region's commit queues close (end of
run) or when interrupted via :meth:`stop`, so a drained event heap stays
drainable.  A region with *zero* commit queues (cache-only) never
self-exits — it samples until :meth:`stop` — since "all queues closed"
is vacuously true from the first wakeup and would otherwise end sampling
after one point.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.obs.sketch import Series, append_row
from repro.sim.core import Event, Interrupt
from repro.sim.resources import window_utilizations

__all__ = ["GaugeSampler"]


class GaugeSampler:
    """DES process recording one region's gauges each simulated interval."""

    def __init__(self, hub, region, interval: float,
                 resources: Optional[List[Tuple[str, Any]]] = None):
        if interval <= 0:
            raise ValueError(f"sample interval must be > 0, got {interval}")
        self.hub = hub
        self.region = region
        self.interval = interval
        self.env = region.env
        self.samples = 0
        self._process = None
        name = region.name
        #: The six region-wide gauges, in the order a tick lists them.
        self._region_series: List[Series] = [
            hub.series_recorder(f"{gauge}[{name}]") for gauge in (
                "queue.backlog", "cache.used_bytes", "cache.hit_rate",
                "consistency.pending_age", "commit.stall_age",
                "client.error_rate")]
        # Commit-progress and error-rate deltas need a previous tick.
        self._prev_resolved = self._resolved_total()
        self._last_progress_t = region.env.now
        self._prev_errors = hub.error_count
        #: ``queue.depth`` series by queue name, and the queues the
        #: current row layout was built for.
        self._queue_series: Dict[str, Series] = {}
        self._queues: List[Any] = []
        #: ``(resource, window mark)`` per tracked resource, and its
        #: ``resource.util`` series.  The hub hands each sampler only the
        #: resources it tracked first, so shared ones are sampled exactly
        #: once; those handed in here are windowed from creation.
        self._windows: List[Tuple[Any, List[float]]] = []
        self._util_series: List[Series] = []
        for label, res in resources or ():
            self._windows.append((res, [0.0, res.created_at]))
            self._util_series.append(
                hub.series_recorder(f"resource.util[{label}]"))
        self._layout(list(region.queues.queues()))

    def _resolved_total(self) -> int:
        """Ops the region's commit pipeline has retired so far (committed,
        discarded, or coalesced) — the progress signal behind stall age."""
        total = 0
        # Queue-less (cache-only) regions have no commit pipeline at all.
        for cp in getattr(self.region, "commit_processes", ()):
            total += cp.committed + cp.discarded + cp.coalesced
        return total

    def _layout(self, queues: List[Any]) -> None:
        """Resolve the series of one tick's row: the region gauges, one
        depth per queue in ``queues`` order, one utilization per
        resource."""
        for queue in queues:
            if queue.name not in self._queue_series:
                self._queue_series[queue.name] = self.hub.series_recorder(
                    f"queue.depth[{queue.name}]")
        self._queues = queues
        self._series = [*self._region_series,
                        *(self._queue_series[q.name] for q in queues),
                        *self._util_series]

    def track(self, name: str, resource: Any) -> None:
        """Start sampling one more resource mid-run (elastic growth).

        The utilization window is seeded from the resource's *current*
        busy time, so a node that did work before joining this region
        (or a re-tracked one) does not show a spurious first-sample
        spike."""
        self._windows.append((resource, [resource.busy_time(),
                                         self.env.now]))
        self._util_series.append(
            self.hub.series_recorder(f"resource.util[{name}]"))
        self._layout(self._queues)

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Spawn the sampling loop; returns the Process."""
        if self._process is not None and self._process.is_alive:
            return self._process
        self._process = self.env.process(
            self.run(), label=f"sampler:{self.region.name}")
        return self._process

    def stop(self) -> None:
        """Interrupt the sampling loop (it takes one more sim step)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("sampler stopped")

    # -- the loop ----------------------------------------------------------
    def run(self) -> Generator[Event, Any, None]:
        try:
            while True:
                all_closed = self.sample_once()
                if all_closed:
                    return  # end of run: let the event heap drain
                yield float(self.interval)
        except Interrupt:
            return

    def sample_once(self) -> bool:
        """Record one point per gauge at the current simulated time.

        Returns True when the region has commit queues and every one has
        closed (the sampler's natural exit).  Vacuous truth is excluded
        deliberately: a queue-less region reports False forever and is
        sampled until :meth:`stop`.
        """
        t = self.env.now
        region = self.region
        queues = list(region.queues.queues())
        if queues != self._queues:  # a queue came or went
            self._layout(queues)
        depths = [len(queue) for queue in queues]
        all_closed = all([queue.closed for queue in queues])
        oldest = region.oldest_outstanding_op_timestamp()
        # Stall age: outstanding work + zero resolution progress since the
        # last tick that saw either progress or an empty pipeline.
        resolved = self._resolved_total()
        if resolved != self._prev_resolved or oldest is None:
            self._prev_resolved = resolved
            self._last_progress_t = t
        errors = self.hub.error_count
        append_row(self._series, t, [
            sum(depths), region.cache.used_bytes(), region.cache.hit_rate(),
            0.0 if oldest is None else t - oldest,
            t - self._last_progress_t, errors - self._prev_errors,
            *depths, *window_utilizations(self._windows)])
        self._prev_errors = errors
        self.samples += 1
        return bool(queues) and all_closed
