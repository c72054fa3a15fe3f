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

Sampling is batched: every gauge key string and its series-append
recorder are resolved once (at construction, or on first sight of a
queue), so a wakeup is a single pass over the region's queues and
resources with no per-sample f-string formatting or registry lookups.

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

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.core import Event, Interrupt

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
        # Preresolved recorders: one bound ``series.append`` per gauge.
        recorder = hub.series_recorder
        self._record_backlog = recorder(f"queue.backlog[{region.name}]")
        self._record_used = recorder(f"cache.used_bytes[{region.name}]")
        self._record_hit_rate = recorder(f"cache.hit_rate[{region.name}]")
        self._record_pending_age = recorder(
            f"consistency.pending_age[{region.name}]")
        self._record_stall_age = recorder(
            f"commit.stall_age[{region.name}]")
        self._record_error_rate = recorder(
            f"client.error_rate[{region.name}]")
        # Commit-progress and error-rate deltas need a previous tick.
        self._prev_resolved = self._resolved_total()
        self._last_progress_t = region.env.now
        self._prev_errors = hub.error_count
        self._queue_recorders: Dict[str, Callable[[float, float], None]] = {
            q.name: recorder(f"queue.depth[{q.name}]")
            for q in region.queues.queues()}
        #: Per resource whose windowed utilization this sampler records:
        #: (resource, recorder, window mark).  The hub hands each sampler
        #: only the resources it tracked first, so shared ones are sampled
        #: exactly once; those handed in here are windowed from creation.
        self._resource_state: List[tuple] = [
            (res, recorder(f"resource.util[{name}]"), [0.0, res.created_at])
            for name, res in resources or ()]

    def _resolved_total(self) -> int:
        """Ops the region's commit pipeline has retired so far (committed,
        discarded, or coalesced) — the progress signal behind stall age."""
        total = 0
        # Queue-less (cache-only) regions have no commit pipeline at all.
        for cp in getattr(self.region, "commit_processes", ()):
            total += cp.committed + cp.discarded + cp.coalesced
        return total

    def track(self, name: str, resource: Any) -> None:
        """Start sampling one more resource mid-run (elastic growth).

        The utilization window is seeded from the resource's *current*
        busy time, so a node that did work before joining this region
        (or a re-tracked one) does not show a spurious first-sample
        spike."""
        self._resource_state.append(
            (resource, self.hub.series_recorder(f"resource.util[{name}]"),
             [resource.busy_time(), self.env.now]))

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
        queues = region.queues.queues()
        queue_recorders = self._queue_recorders
        backlog = 0
        all_closed = True
        saw_queue = False
        for queue in queues:
            saw_queue = True
            depth = len(queue)
            backlog += depth
            rec = queue_recorders.get(queue.name)
            if rec is None:  # queue appeared after construction
                rec = self.hub.series_recorder(f"queue.depth[{queue.name}]")
                queue_recorders[queue.name] = rec
            rec(t, depth)
            if not queue.closed:
                all_closed = False
        self._record_backlog(t, backlog)
        self._record_used(t, region.cache.used_bytes())
        self._record_hit_rate(t, region.cache.hit_rate())
        oldest = region.oldest_outstanding_op_timestamp()
        self._record_pending_age(t, 0.0 if oldest is None else t - oldest)
        # Stall age: outstanding work + zero resolution progress since the
        # last tick that saw either progress or an empty pipeline.
        resolved = self._resolved_total()
        if resolved != self._prev_resolved or oldest is None:
            self._prev_resolved = resolved
            self._last_progress_t = t
            self._record_stall_age(t, 0.0)
        else:
            self._record_stall_age(t, t - self._last_progress_t)
        errors = self.hub.error_count
        self._record_error_rate(t, float(errors - self._prev_errors))
        self._prev_errors = errors
        for resource, rec, mark in self._resource_state:
            rec(t, resource.window_utilization(mark))
        self.samples += 1
        return saw_queue and all_closed
