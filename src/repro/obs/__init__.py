"""Observability: spans, metrics aggregation, sampling, and exports.

The subsystem has six pieces (readers take the hub's exported document):

* per-operation **span trees** — :class:`repro.core.client.PaconClient`
  opens a root span per op and every downstream stage (cache shard,
  network transfer, commit queue, MDS RPC) attaches a child span carrying
  the parent's :class:`repro.sim.trace.SpanContext`, so each op
  reassembles into a causal tree with a critical-path latency
  attribution (see ``Tracer.span_tree`` / ``Tracer.attribution``),
* a :class:`MetricsHub` — the region-wide aggregation point for client,
  commit, cache, queue, and contention-resource statistics, exporting one
  stable-ordered ``pacon.metrics/v4`` JSON document,
* a :class:`GaugeSampler` — a DES process that records queue-depth,
  cache, and windowed resource-utilization gauges at a configurable
  simulated-time interval,
* :mod:`repro.obs.chrome` — Chrome trace-event JSON export of the span
  trees and counter series, loadable in Perfetto / ``chrome://tracing``,
* :mod:`repro.obs.profile` — the ``mdtest --profile-out`` report: latency
  attribution per op class, top-N slowest ops, and the per-resource
  utilization/queueing table,
* the **incident flight recorder** — :mod:`repro.obs.timeline` (the
  sim-time-ordered control-plane event log every chaos/autoscale/
  membership hook records into) and
  :mod:`repro.obs.incidents` (SLO-burn incident detection with causal
  blame attribution over that log), surfaced as the ``timeline`` and
  ``incidents`` sections of the v4 export and the ``pacon-bench
  incidents`` verb.

Everything is off by default: regions carry :data:`NULL_HUB` (and
``NULL_TRACER``), whose ``enabled`` flag short-circuits every hot-path
call site, so a run without observability spends zero simulated time and
negligible wall time on it.
"""

from repro.obs.hub import MetricsHub, NULL_HUB, attribution_rollup
from repro.obs.sampler import GaugeSampler
from repro.obs.timeline import NULL_TIMELINE, ControlEvent, Timeline

__all__ = ["MetricsHub", "NULL_HUB", "GaugeSampler", "attribution_rollup",
           "Timeline", "ControlEvent", "NULL_TIMELINE"]
