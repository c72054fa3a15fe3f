"""The MetricsHub: region-wide metric aggregation and stable JSON export.

One hub serves a whole experiment.  Regions are *attached* to it (which
installs the hub and its tracer onto the region and so turns the
client/commit hot-path instrumentation on); the region stays the registry
of its nodes, shards, commit processes and clients, and a node that joins
later reports itself (:meth:`MetricsHub.track_member`).  At export time
the hub combines

* its own :class:`~repro.obs.sketch.StatsRegistry` (latency sketches,
  commit counters, sampled gauge series), and
* a snapshot of every attached region (cache, queue, commit-process, and
  barrier state) and client (op/hit/miss/redirect counts)

into one JSON document with fully sorted keys, so two same-seed runs
produce byte-identical exports and ``diff`` localizes any divergence.

The shared :data:`NULL_HUB` is the disabled instance every region starts
with — a plain ``MetricsHub(enabled=False)`` whose recorders return before
touching anything; its ``enabled`` flag is the only thing hot paths ever
read from it.
"""

from __future__ import annotations

import json
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.incidents import detect_incidents
from repro.obs.sampler import GaugeSampler
from repro.obs.sketch import QuantileSketch, Series, StatsRegistry
from repro.obs.slo import default_policy
from repro.obs.timeline import NULL_TIMELINE, Timeline
from repro.sim.trace import ATTRIBUTION_BUCKETS, NULL_TRACER, Tracer

__all__ = ["MetricsHub", "NULL_HUB", "SAMPLE_INTERVAL", "COMMIT_TALLIES",
           "attribution_rollup"]

SCHEMA = "pacon.metrics/v4"

#: The per-commit-process tallies a region's ``commit`` snapshot sums
#: (and the schema contract requires).
COMMIT_TALLIES = ("committed", "discarded", "resubmissions", "coalesced",
                  "barriers_passed", "replays", "aborts")

#: Simulated seconds between gauge samples wherever the bench harness or
#: the CLI turns sampling on (a hub built without an interval has none).
SAMPLE_INTERVAL = 200e-6


class _SketchMemo(dict):
    """``(name part, ...) -> sketch``: each recorder's sketch, resolved once.

    A recorder keys its sketch by the metric name in pieces
    (``("client.op.", op, ".latency")``), so an observation costs one
    tuple and one lookup.  Only the first one joins the name and creates
    the sketch in the registry — never earlier, because ``histograms``
    exports every sketch that exists.
    """

    def __init__(self, stats: StatsRegistry):
        super().__init__()
        self._stats = stats

    def __missing__(self, parts: Tuple[str, ...]) -> QuantileSketch:
        sketch = self[parts] = self._stats.sketch("".join(parts))
        return sketch


class MetricsHub:
    """Aggregates client + commit + cache + queue statistics region-wide."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 sample_interval: Optional[float] = None,
                 enabled: bool = True):
        self.enabled = enabled
        self.stats = StatsRegistry()
        self._sketch = _SketchMemo(self.stats)
        #: Tracer shared with every attached region; NULL_TRACER unless the
        #: caller wants span/commit events collected too.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Simulated-seconds between gauge samples; None disables sampling.
        self.sample_interval = sample_interval
        #: Control-plane event log (chaos faults, scaling actions,
        #: membership changes).  Only allocated when
        #: the hub is live — the NULL path shares one no-op timeline, and
        #: the zero-cost tests monkeypatch Timeline.__init__ to prove no
        #: disabled run ever constructs one.
        self.timeline = Timeline() if enabled else NULL_TIMELINE
        self._regions: List[Any] = []
        self._samplers: List[GaugeSampler] = []
        #: Tracked contention resources by export label (deduplicated by
        #: identity: one DFS under many regions is profiled once).
        self._resources: Dict[str, Any] = {}
        #: Running hub-wide failed-op total.  Samplers poll it per tick to
        #: derive the ``client.error_rate[*]`` series without scanning the
        #: counter registry on the hot path.
        self.error_count = 0

    # -- recording ---------------------------------------------------------
    # Hot paths guard on ``.enabled`` before calling (so a disabled run
    # builds no arguments); each recorder also returns early when the hub
    # is disabled, which is the whole of what makes NULL_HUB inert.
    def observe_op(self, op: str, latency: float, ok: bool = True) -> None:
        """One completed client operation with its simulated latency."""
        if not self.enabled:
            return
        self._sketch["client.op.", op, ".latency"].observe(latency)
        self.stats.count("client.ops")
        if not ok:
            self.stats.count(f"client.op.{op}.errors")
            self.error_count += 1

    def observe_commit(self, op: str, latency: float) -> None:
        """One committed operation; latency is publish→commit."""
        if not self.enabled:
            return
        self._sketch["commit.latency",].observe(latency)
        self._sketch["commit.op.", op, ".latency"].observe(latency)
        self.stats.count("commit.committed")

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self._sketch[name,].observe(value)

    def observe_staleness(self, tier: str, op: str, age: float,
                          lag: int) -> None:
        """One metadata read served from ``tier`` with its staleness.

        ``age`` is sim-time since the served value last changed while the
        authoritative MDS copy still lags it; ``lag`` is the number of
        pending (published, not yet committed) mutations for the path.
        Reads served by the MDS itself are authoritative by definition
        (age 0, lag 0) and still recorded, so tier distributions compare.
        """
        if not self.enabled:
            return
        self.stats.count(f"consistency.reads[{tier}]")
        self._sketch["consistency.staleness.age[", tier, ":", op,
                     "]"].observe(age)
        self._sketch["consistency.staleness.lag[", tier, ":", op,
                     "]"].observe(float(lag))

    def observe_visibility(self, stage: str, op: str,
                           latency: float) -> None:
        """Submit-to-``stage`` visibility latency of one committed op.

        ``stage`` is ``committed`` (MDS applied the mutation) or
        ``global`` (the cached copy flipped to committed too, i.e. both
        copies converged and every tier serves fresh metadata).
        """
        if not self.enabled:
            return
        self._sketch["consistency.visibility.", stage, "[", op,
                     "]"].observe(latency)

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.stats.count(name, n)

    def record_sample(self, name: str, time: float, value: float) -> None:
        if not self.enabled:
            return
        self.stats.series(name).append(time, value)

    def series_recorder(self, name: str) -> Series:
        """The gauge series ``name``, resolved once.

        Samplers resolve each gauge's series up front and add points to
        it every wakeup with no registry lookup or key formatting.  A
        disabled hub hands out a detached series that records nowhere.
        """
        if not self.enabled:
            return Series(name)
        return self.stats.series(name)

    # -- wiring ------------------------------------------------------------
    def attach_region(self, region):
        """Install this hub (and its tracer) on ``region``.

        Installs the tracer on the region's cluster and network too (span
        propagation into services and transfers), tracks the region's
        members and the DFS's MDS/data servers (:meth:`track_member`),
        and starts a :class:`GaugeSampler` for the region when the hub
        has a ``sample_interval``.  The sampler covers only the resources
        first registered here, so shared DFS resources produce one
        utilization series, not one per region.
        """
        if not self.enabled:
            raise RuntimeError("a disabled hub (NULL_HUB) is shared and"
                               " read-only; create a MetricsHub() to"
                               " attach regions")
        region.hub = self
        region.tracer = self.tracer
        region.cluster.tracer = self.tracer
        region.cluster.network.tracer = self.tracer
        # The network counts delivery-time drops (`net.dropped`) here.
        region.cluster.network.hub = self
        self._regions.append(region)
        # Per-shard read attribution for the consistency lens (zero-cost
        # until enabled; the ring counts owner lookups from then on).
        region.cache.ring.enable_lookup_stats()
        fresh: List[Tuple[str, Any]] = []
        for service in (*region.shards, *region.dfs.mds_servers,
                        *region.dfs.data_servers):
            fresh += self.track_member(region, service)
        if self.sample_interval:
            sampler = GaugeSampler(self, region, self.sample_interval,
                                   resources=fresh)
            sampler.start()
            self._samplers.append(sampler)
        return region

    def track_member(self, region, service) -> List[Tuple[str, Any]]:
        """Profile one member of ``region``: the CPU and NIC of the node a
        service (cache shard, DFS server) runs on, and its worker pool.

        The one resource-label scheme: each is exported under its own
        name (``<node>.cpu``, ``<node>.nic``, ``<service>.workers``) in
        ``resources``, ``resource.wait[<label>]`` and — extending the
        region's running sampler, if any — ``resource.util[<label>]``.
        ``ConsistentRegion.add_node`` calls this for a node that joins
        after attachment.  Returns the pairs first tracked here.
        """
        fresh = []
        for resource in (service.node.cpu, service.node.nic,
                         service.workers):
            if any(known is resource for known in self._resources.values()):
                continue  # shared or re-joining: profiled once, by identity
            label = resource.name
            if label in self._resources:
                label = f"{label}#{len(self._resources)}"
            self._resources[label] = resource
            resource._wait_observe = self._wait_recorder(resource, label)
            fresh.append((label, resource))
        for sampler in self._samplers:
            if sampler.region is region:
                for label, resource in fresh:
                    sampler.track(label, resource)
        return fresh

    def _wait_recorder(self, resource, label: str):
        """``resource``'s wait observer, resolved once: the first queued
        wait creates the ``resource.wait[<label>]`` sketch and installs
        that sketch's ``observe`` in its place, so every later wait is a
        single call."""
        def first_wait(waited: float) -> None:
            sketch = self._sketch[f"resource.wait[{label}]",]
            resource._wait_observe = sketch.observe
            sketch.observe(waited)
        return first_wait

    @property
    def samplers(self) -> List[GaugeSampler]:
        return list(self._samplers)

    def stop_samplers(self) -> None:
        for sampler in self._samplers:
            sampler.stop()

    # -- export ------------------------------------------------------------
    def consistency_snapshot(self) -> Dict[str, Any]:
        """Cross-tier staleness/visibility rollup (``consistency``).

        Merges the per-``tier:op`` staleness sketches into headline
        distributions (sketch buckets add exactly, so the merge is
        lossless at sketch resolution) and attributes reads to cache
        shards via the hash ring's lookup counters.
        """
        sketches = self.stats.sketches()

        def merged(prefix: str, label: str) -> QuantileSketch:
            out = QuantileSketch(label)
            for name in sorted(sketches):
                if name.startswith(prefix):
                    out.merge(sketches[name])
            return out

        counters = self.stats.counters()
        reads = {name[len("consistency.reads["):-1]: value
                 for name, value in counters.items()
                 if name.startswith("consistency.reads[")}
        age = merged("consistency.staleness.age[",
                     "consistency.staleness.age")
        lag = merged("consistency.staleness.lag[",
                     "consistency.staleness.lag")
        visibility = {
            stage: merged(f"consistency.visibility.{stage}[",
                          f"consistency.visibility.{stage}").summary()
            for stage in ("committed", "global")}
        shard_reads: Dict[str, int] = {}
        pending = 0
        for region in self._regions:
            pending += region.total_pending_mutations()
            ring = getattr(region.cache, "ring", None)
            counts = ring.lookup_counts() if ring is not None else None
            if counts:
                for member, n in counts.items():
                    shard_reads[member] = shard_reads.get(member, 0) + n
        return {
            "reads": reads,
            "orphan_reads": counters.get("consistency.orphan_reads", 0),
            "staleness": {"age": age.summary(), "lag": lag.summary()},
            "staleness_p99": age.percentile(99),
            "visibility": visibility,
            "pending_mutations": pending,
            "shard_reads": {k: shard_reads[k] for k in sorted(shard_reads)},
            "sketches": {name: sk.export()
                         for name, sk in sorted(sketches.items())
                         if name.startswith("consistency.")},
        }

    def export(self) -> Dict[str, Any]:
        """One aggregated document; keys sort stably for run-to-run diffs."""
        regions: Dict[str, Any] = {}
        for idx, region in enumerate(self._regions):
            regions[f"{idx:02d}:{region.name}"] = _region_snapshot(region)
        # The one parse of the event log an export pays for.
        ops = self.tracer.op_rows()
        doc = {
            "schema": SCHEMA,
            "enabled": self.enabled,
            "counters": self.stats.counters(),
            "histograms": self.stats.histograms(),
            # Always empty; dropping the key would be a pacon.metrics/v4
            # schema change.
            "meters": {},
            "series": self.stats.series_export(),
            "regions": regions,
            "clients": _client_snapshot(
                [c for region in self._regions for c in region.clients]),
            "attribution": attribution_rollup(
                self.tracer.attributions(ops)),
            "resources": self.resource_snapshot(),
            "consistency": self.consistency_snapshot(),
            "trace": {"events": len(self.tracer),
                      "dropped": self.tracer.dropped,
                      "open_spans": self.tracer.open_span_count(ops)},
        }
        # The SLO engine and the incident detector read the finished
        # document (series + timeline), so they run last, in this order.
        doc["slo"] = default_policy().evaluate(doc).to_doc()
        doc["timeline"] = self.timeline.export()
        doc["incidents"] = detect_incidents(doc)
        return doc

    def resource_snapshot(self) -> Dict[str, Any]:
        """Lifetime contention figures for every registered resource."""
        out: Dict[str, Any] = {}
        for name, res in self._resources.items():
            out[name] = {
                "capacity": res.capacity,
                "utilization": res.utilization(),
                "busy_time": res.busy_time(),
                "total_acquires": res.total_acquires,
                "total_wait_time": res.total_wait_time,
                "peak_queue": res.peak_queue,
            }
        return out

    def to_json(self, indent: Optional[int] = None,
                doc: Optional[Dict[str, Any]] = None) -> str:
        """Serialize ``doc`` (or a fresh :meth:`export`) deterministically.

        Passing an already-exported document avoids re-running the SLO
        and incident passes when the caller needs both the dict and the
        JSON (the CLI does).
        """
        if doc is None:
            doc = self.export()
        return _dumps(doc, indent)


#: Stands in for each series' ``t`` array while the rest of a document is
#: encoded; a NUL never occurs in an exported name or label.
_TIMES = "\0t\0"


def _dumps(doc: Dict[str, Any], indent: Optional[int] = None) -> str:
    """``json.dumps(doc, sort_keys=True, indent=indent)``, byte for byte,
    encoding each distinct ``series[*].t`` of an exported document once.

    Every gauge of a sampler shares one time axis, so the series section
    repeats the same float array once per gauge, and formatting floats is
    most of what encoding a document costs.  Each ``t`` is swapped for a
    placeholder, the document is encoded once, and the placeholders are
    replaced, in sorted-name order, by each array's text indented to its
    depth (document, series, name).  Two arrays share a text only when
    both hold nothing but floats with the same bits.
    """
    series = doc.get("series")
    if not (isinstance(series, dict) and all(
            isinstance(entry, dict) and isinstance(entry.get("t"), list)
            for entry in series.values())):  # not an export's shape
        return json.dumps(doc, sort_keys=True, indent=indent)
    names = sorted(series)
    masked = dict(doc, series={name: dict(series[name], t=_TIMES)
                               for name in names})
    parts = json.dumps(masked, sort_keys=True, indent=indent).split(
        json.dumps(_TIMES))
    if len(parts) != len(names) + 1:  # a placeholder collided: no sharing
        return json.dumps(doc, sort_keys=True, indent=indent)
    step = " " * indent if isinstance(indent, int) else indent
    texts: Dict[bytes, str] = {}
    out = [parts[0]]
    for name, rest in zip(names, parts[1:]):
        times = series[name]["t"]
        key = (array("d", times).tobytes()
               if set(map(type, times)) <= {float} else None)
        text = texts.get(key)
        if text is None:
            text = json.dumps(times, indent=indent)
            if step is not None:
                text = text.replace("\n", "\n" + step * 3)
            if key is not None:
                texts[key] = text
        out += text, rest
    return "".join(out)


def attribution_rollup(attributions: Dict[int, Dict[str, Any]],
                       ) -> Dict[str, Any]:
    """Aggregate per-op latency attributions (``Tracer.attributions()``,
    built once by the caller) by op class.

    For each op class (mkdir, create, getattr, ...): completed-op count,
    mean end-to-end latency, mean time per attribution bucket, and the
    mean residual — ``mean_latency == sum(buckets) + residual`` exactly,
    by construction, so the decomposition can never silently lose time.
    """
    per_class: Dict[str, Dict[str, Any]] = {}
    for op_id in sorted(attributions):
        att = attributions[op_id]
        op_class = att["op"] or "?"
        agg = per_class.get(op_class)
        if agg is None:
            agg = per_class[op_class] = {
                "count": 0,
                "total_latency": 0.0,
                "buckets": dict.fromkeys(ATTRIBUTION_BUCKETS, 0.0),
                "residual": 0.0,
            }
        agg["count"] += 1
        agg["total_latency"] += att["duration"]
        totals = agg["buckets"]
        for name, value in att["buckets"].items():
            totals[name] += value
        agg["residual"] += att["residual"]
    ops: Dict[str, Any] = {}
    for op_class, agg in per_class.items():
        n = agg["count"]
        ops[op_class] = {
            "count": n,
            "mean_latency": agg["total_latency"] / n,
            "buckets": {name: total / n
                        for name, total in agg["buckets"].items()},
            "residual": agg["residual"] / n,
        }
    return {"ops": ops, "total_ops": len(attributions),
            "buckets": list(ATTRIBUTION_BUCKETS)}


def _region_snapshot(region) -> Dict[str, Any]:
    commit = {tally: sum(getattr(cp, tally)
                         for cp in region.commit_processes)
              for tally in COMMIT_TALLIES}
    queues = {}
    for queue in region.queues.queues():
        queues[queue.name] = {"depth": len(queue),
                              "peak_depth": queue.peak_depth,
                              "published": queue.published,
                              "delivered": queue.delivered,
                              "wait_time": queue.total_wait_time}
    hits, misses = region.cache.hit_miss_counts()
    return {
        "workspace": region.workspace,
        "nodes": len(region.nodes),
        "clients": region.total_clients(),
        "ops_submitted": region.ops_submitted,
        "ops_committed": region.ops_committed,
        "barrier_epochs_completed": region.barrier_epochs_completed,
        "cache": {
            "items": region.cache.total_items(),
            "used_bytes": region.cache.used_bytes(),
            "hits": hits,
            "misses": misses,
            "hit_rate": region.cache.hit_rate(),
            "cas_retries": region.cache.cas_retries,
        },
        "queues": queues,
        "commit": commit,
    }


def _client_snapshot(clients) -> Dict[str, int]:
    snap = {"count": len(clients), "ops": 0, "cache_hits": 0,
            "cache_misses": 0, "redirects": 0}
    for client in clients:
        snap["ops"] += client.ops
        snap["cache_hits"] += client.cache_hits
        snap["cache_misses"] += client.cache_misses
        snap["redirects"] += client.redirects
    return snap


#: The shared disabled hub every region starts with.
NULL_HUB = MetricsHub(enabled=False)
