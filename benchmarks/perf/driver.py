"""The benchmark's own closed-loop workload driver.

Builds a system through the public constructors, drives the public
client generator API from its own ``env.process`` loops with a
``Barrier`` between phases, times the section a user waits for (the
phases and the commit drain) in calibrated slices, verifies the
namespace the run left behind, and reads every layer's public counters
before and after the timed section.  It does not call
``repro.workloads.mdtest``: a later change cannot move a number here by
editing that generator.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.systems import TestBed, make_testbed
from repro.chaos.invariants import check_convergence, namespace_entries
from repro.dfs.errors import FSError
from repro.dfs.inode import FileType
from repro.obs.hub import MetricsHub
from repro.sim.resources import Barrier
from repro.sim.trace import Tracer

from benchmarks.perf.inputs import WORKDIR, Geometry, Inputs, Workload, generate

#: Gauge sampling period of the observed workload (simulated seconds).
SAMPLE_INTERVAL = 200e-6

#: Calibration rate (loops/s) that host time is normalised to; about
#: what the sandbox this benchmark was written on sustains.
CALIB_REF = 2.0e6
#: Host seconds of simulation between two calibration bursts.
SLICE_TARGET = 0.1

#: Snapshot keys that are levels, not running totals: report the end
#: value instead of the timed section's delta.
GAUGES = ("kvstore.memkv_used_bytes", "mq.peak_depth")


@dataclass
class Repeat:
    """Everything one run of one workload measured."""

    ops: int = 0
    failed_ops: int = 0                 # raised, or returned the wrong type
    mismatches: List[str] = field(default_factory=list)   # verification
    timed_wall: float = 0.0             # host seconds in the timed section
    #: Set-up and timed section in calibrated seconds: each stretch of
    #: host time weighted by the calibration rate around it (seconds on
    #: a machine calibrating at CALIB_REF).  Plain host seconds when the
    #: run took no calibration bursts.
    setup_calibrated: float = 0.0
    timed_calibrated: float = 0.0
    bursts: List[float] = field(default_factory=list)
    sim: Dict[str, Optional[float]] = field(default_factory=dict)
    counters: Dict[str, Optional[float]] = field(default_factory=dict)
    #: ``(phase, sim start, sim end)`` and per phase, per rank, the sim
    #: start/end of every op — the benchmark's own spans.
    phase_spans: List[Tuple[str, float, float]] = field(default_factory=list)
    op_spans: List[List[Tuple[List[float], List[float]]]] = field(
        default_factory=list)


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _services(bed: TestBed) -> List[Any]:
    out: List[Any] = []
    if bed.dfs is not None:
        out += bed.dfs.mds_servers + bed.dfs.data_servers
    if bed.app.region is not None:
        out += bed.app.region.shards
    if bed.indexfs is not None:
        out += bed.indexfs.servers
    return out


def snapshot(bed: TestBed) -> Dict[str, Optional[float]]:
    """Running totals of every layer's public counters; None where the
    system has no such layer."""
    env, net = bed.env, bed.cluster.network
    services = _services(bed)
    resources = [s.workers for s in services]
    for node in bed.cluster.nodes:
        resources += (node.cpu, node.nic)
    snap: Dict[str, Optional[float]] = {
        "sim_now": env.now,
        "sim.core.events": env.processed_events,
        "sim.resources.acquires": sum(r.total_acquires for r in resources),
        "sim.resources.wait_sim_s": sum(s.workers.total_wait_time
                                        for s in services),
        "sim.network.messages": net.messages_sent,
        "sim.network.bytes": net.bytes_sent,
        "sim.network.dropped": net.dropped,
    }

    def put(prefix: str, present: bool, **totals: float) -> None:
        for key, value in totals.items():
            snap[f"{prefix}.{key}"] = value if present else None

    region = bed.app.region
    kvs = [shard.kv for shard in region.shards] if region else []
    put("kvstore", region is not None,
        memkv_sets=sum(kv.sets for kv in kvs),
        memkv_hits=sum(kv.hits for kv in kvs),
        memkv_misses=sum(kv.misses for kv in kvs),
        memkv_cas_failures=sum(kv.cas_failures for kv in kvs),
        memkv_used_bytes=sum(kv.used_bytes for kv in kvs))
    ifs = bed.indexfs
    lsms = [server.lsm for server in ifs.servers] if ifs else []
    put("kvstore", ifs is not None,
        lsm_puts=sum(lsm.puts for lsm in lsms),
        lsm_gets=sum(lsm.gets for lsm in lsms),
        lsm_flushes=sum(lsm.flushes for lsm in lsms),
        lsm_compactions=sum(lsm.compactions for lsm in lsms),
        lsm_entries_compacted=sum(lsm.entries_compacted for lsm in lsms))

    mds = bed.dfs.mds_servers if bed.dfs else []
    if bed.system == "beegfs":
        dfs_clients = list(bed.clients)
    elif region is not None:
        dfs_clients = ([c.dfs_client for c in bed.clients]
                       + [cp.dfs_client for cp in region.commit_processes])
    else:
        dfs_clients = []
    put("dfs", bed.dfs is not None,
        mds_requests=sum(m.requests_served for m in mds),
        mds_busy_sim_s=sum(m.workers.busy_time() for m in mds),
        mds_capacity=sum(m.workers.capacity for m in mds),
        mds_wait_sim_s=sum(m.workers.total_wait_time for m in mds),
        mds_inode_cache_hits=sum(m.inode_cache_hits for m in mds),
        mds_inode_cache_misses=sum(m.inode_cache_misses for m in mds),
        client_rpcs=sum(c.rpcs_sent for c in dfs_clients),
        client_lookup_rpcs=sum(c.lookup_rpcs for c in dfs_clients))

    queues = list(region.queues.queues()) if region else []
    put("mq", region is not None,
        published=sum(q.published for q in queues),
        delivered=sum(q.delivered for q in queues),
        peak_depth=max((q.peak_depth for q in queues), default=0),
        wait_sim_s=sum(q.total_wait_time for q in queues))
    pacon_clients = bed.clients if region else []
    cps = region.commit_processes if region else []
    put("core", region is not None,
        client_cache_hits=sum(c.cache_hits for c in pacon_clients),
        client_cache_misses=sum(c.cache_misses for c in pacon_clients),
        cas_retries=region.cache.cas_retries if region else 0,
        commit_committed=sum(cp.committed for cp in cps),
        commit_discarded=sum(cp.discarded for cp in cps),
        commit_coalesced=sum(cp.coalesced for cp in cps),
        commit_resubmissions=sum(cp.resubmissions for cp in cps))

    ifs_clients = bed.clients if ifs else []
    put("baselines", ifs is not None,
        indexfs_rpcs=sum(c.rpcs_sent for c in ifs_clients),
        indexfs_lease_hits=sum(c.lease_hits for c in ifs_clients),
        indexfs_lease_renewals=sum(c.lease_renewals for c in ifs_clients),
        indexfs_splits=ifs.splits if ifs else 0)
    return snap


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _counters(before: Dict[str, Optional[float]],
              after: Dict[str, Optional[float]],
              ops: int) -> Dict[str, Optional[float]]:
    """Timed-section deltas plus the ratios the layers are judged by."""
    d: Dict[str, Optional[float]] = {}
    for key, end in after.items():
        start = before[key]
        d[key] = (end if key in GAUGES or end is None or start is None
                  else end - start)
    sim_s = d.pop("sim_now")
    d["sim.core.events_per_op"] = d["sim.core.events"] / ops
    d["sim.network.msgs_per_op"] = d["sim.network.messages"] / ops
    busy, capacity = d.pop("dfs.mds_busy_sim_s"), after["dfs.mds_capacity"]
    del d["dfs.mds_capacity"]
    d["dfs.mds_requests_per_op"] = _ratio(d["dfs.mds_requests"], ops)
    d["dfs.mds_utilization"] = (None if busy is None
                                else busy / (sim_s * capacity))
    hits = d.pop("dfs.mds_inode_cache_hits")
    misses = d.pop("dfs.mds_inode_cache_misses")
    d["dfs.mds_inode_cache_hit_rate"] = _ratio(
        hits, None if hits is None else hits + misses)
    hits = d.pop("core.client_cache_hits")
    misses = d.pop("core.client_cache_misses")
    d["core.client_cache_hit_rate"] = _ratio(
        hits, None if hits is None else hits + misses)
    d["core.commit_resubmit_ratio"] = _ratio(
        d["core.commit_resubmissions"], d["core.commit_committed"])
    d["core.commit_ops_per_sim_s"] = _ratio(d["core.commit_committed"],
                                            sim_s)
    hits = d.pop("baselines.indexfs_lease_hits")
    renewals = d.pop("baselines.indexfs_lease_renewals")
    d["baselines.indexfs_lease_hit_rate"] = _ratio(
        hits, None if hits is None else hits + renewals)
    return d


def verify(bed: TestBed, inputs: Inputs) -> List[str]:
    """Compare what the run left behind against the generated path set."""
    problems: List[str] = []
    region = bed.app.region
    if region is not None:
        problems += check_convergence(region, bed.dfs).problems
    if bed.indexfs is not None:
        found = {key: record["ftype"] == FileType.DIRECTORY.value
                 for server in bed.indexfs.servers
                 for key, record in server.lsm.scan_prefix(WORKDIR)}
        total = bed.indexfs.total_entries()
        if total != len(inputs.expected):
            problems.append(f"IndexFS holds {total} entries, expected"
                            f" {len(inputs.expected)}")
    else:
        found = {entry[0]: entry[1] for entry in
                 namespace_entries(bed.dfs.namespace, WORKDIR)}
    for path in found.keys() ^ inputs.expected.keys():
        problems.append(("unexpected" if path in found else "missing")
                        + f" entry {path}")
    for path, is_dir in inputs.expected.items():
        if found.get(path, is_dir) != is_dir:
            problems.append(f"{path} has the wrong type")
    return problems


class _Finished(Exception):
    """Raised out of ``env.run`` by the event that ends the timed run."""


def _finish(_event: Any) -> None:
    raise _Finished


class _Stopwatch:
    """Times stretches of work, with a calibration burst between them.

    The sandbox's speed moves by a third within seconds.  A burst of a
    fixed pure-Python loop before and after every stretch samples the
    machine at the moment the work ran; the stretch's seconds are
    weighted by the mean rate of its two bursts over ``CALIB_REF``.
    Bursts themselves are not timed.
    """

    def __init__(self, burst: Optional[Callable[[], float]]):
        self._burst = burst
        self.bursts: List[float] = [burst()] if burst else []

    def time(self, work: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(work(), host seconds, calibrated seconds)``."""
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        if not self._burst:
            return result, wall, wall
        self.bursts.append(self._burst())
        rate = (self.bursts[-2] + self.bursts[-1]) / 2
        return result, wall, wall * rate / CALIB_REF


def run_repeat(workload: Workload, geo: Geometry, seed: int, *,
               observed: Optional[bool] = None,
               burst: Optional[Callable[[], float]] = None,
               timed: Callable[[Callable[[], None]], None] = lambda f: f(),
               ) -> Repeat:
    """Set up, run and verify ``workload`` once.

    ``observed`` overrides the workload's own setting (the hub-less
    twin of the observed workload).  ``burst`` is the calibration loop,
    run between slices of the timed section (see ``_Stopwatch``).
    ``timed`` wraps the timed section; the traced pass passes a
    profiler's ``runcall`` here.
    """
    rep = Repeat()
    observed = workload.observed if observed is None else observed
    gc.collect()
    watch = _Stopwatch(burst)

    def set_up():
        inputs = generate(workload, geo, seed)
        hub = (MetricsHub(tracer=Tracer(), sample_interval=SAMPLE_INTERVAL)
               if observed else None)
        bed = make_testbed(workload.system, nodes_per_app=geo.nodes,
                           clients_per_node=geo.ranks_per_node,
                           workdir_base=WORKDIR, seed=seed, hub=hub)
        if inputs.tree:
            def build():
                for path in inputs.tree:
                    yield from bed.clients[0].mkdir(path)
            bed.env.run(until=bed.env.process(build(), label="perf:build"))
            bed.quiesce()
        return inputs, hub, bed

    (inputs, hub, bed), _, rep.setup_calibrated = watch.time(set_up)
    env = bed.env
    rep.ops = inputs.ops

    n_phases = len(inputs.phases)
    barrier = Barrier(env, parties=geo.clients, name="perf")
    released: List[float] = []          # sim time of each barrier release
    rep.op_spans = [[([], []) for _ in range(geo.clients)]
                    for _ in range(n_phases)]

    def rank_proc(rank: int, client: Any):
        for idx, (_, method, per_rank) in enumerate(inputs.phases):
            op = getattr(client, method)
            want_dir = method == "mkdir" or workload.kind == "deepstat"
            starts, ends = rep.op_spans[idx][rank]
            yield barrier.arrive()
            if len(released) == idx:
                released.append(env.now)
            for path in per_rank[rank]:
                starts.append(env.now)
                try:
                    inode = yield from op(path)
                    if inode.is_dir != want_dir:
                        rep.failed_ops += 1
                except FSError:
                    rep.failed_ops += 1
                ends.append(env.now)
        yield barrier.arrive()
        if len(released) == n_phases:
            released.append(env.now)

    def closed_loop():
        yield env.all_of([env.process(rank_proc(rank, client),
                                      label=f"perf:rank{rank}")
                          for rank, client in enumerate(bed.clients)])
        if bed.pacon is not None:
            yield from bed.pacon.quiesce(bed.app.region)

    obs: Dict[str, Optional[float]] = dict.fromkeys(
        ("obs.export_bytes", "obs.export_s", "obs.trace_events",
         "obs.dropped"))
    def section() -> None:
        # Run in slices of simulated time sized to SLICE_TARGET host
        # seconds.  run(until=<time>) schedules nothing, so slicing
        # leaves every simulated number and event count as it was; the
        # callback's exception ends the last slice at the very event
        # that completes the drain, with the clock on it.
        done = env.process(closed_loop(), label="perf:main")
        done.add_callback(_finish)
        # One slice when nothing calibrates (the traced pass), so the
        # profiler's call counts do not depend on how fast slices ran.
        dt = 1e-4 if burst else math.inf
        finished = False

        def run_slice() -> None:
            nonlocal finished
            try:
                env.run(until=env.now + dt)
            except _Finished:
                finished = True

        while not finished:
            _, wall, calibrated = watch.time(run_slice)
            rep.timed_wall += wall
            rep.timed_calibrated += calibrated
            if not finished and env.peek() == math.inf:
                raise RuntimeError("simulation ran out of events before"
                                   " the drain ended")
            dt *= min(4.0, max(0.25, SLICE_TARGET / max(wall, 1e-4)))
        if hub is not None:
            hub.stop_samplers()
            text, wall, calibrated = watch.time(hub.to_json)
            rep.timed_wall += wall
            rep.timed_calibrated += calibrated
            obs["obs.export_bytes"] = len(text)
            obs["obs.export_s"] = wall

    before = snapshot(bed)
    timed(section)
    after = snapshot(bed)
    rep.bursts = watch.bursts
    rep.counters = _counters(before, after, rep.ops)
    if hub is not None:
        obs["obs.trace_events"] = len(hub.tracer)
        obs["obs.dropped"] = hub.tracer.dropped
    rep.counters.update(obs)

    rep.mismatches = verify(bed, inputs)

    rep.phase_spans = [(name, released[i], released[i + 1])
                       for i, (name, _, _) in enumerate(inputs.phases)]
    phase_ops = {name: sum(len(p) for p in per_rank)
                 for name, _, per_rank in inputs.phases}
    lat: Dict[str, List[float]] = {}
    for (name, _, _), ranks in zip(inputs.phases, rep.op_spans):
        lat[name] = sorted(e - s for starts, ends in ranks
                           for s, e in zip(starts, ends))
    everything = sorted(x for values in lat.values() for x in values)
    writes = sorted(lat.get("mkdir", []) + lat.get("create", []))
    phase_s = released[-1] - released[0]
    converge_s = after["sim_now"] - released[-1]
    rep.sim = {
        "sim_ops_per_s": rep.ops / phase_s,
        "sim_p50_us": _percentile(everything, 0.50) * 1e6,
        "sim_p99_us": _percentile(everything, 0.99) * 1e6,
        "sim_converge_s": converge_s,
        "sim_makespan_s": phase_s + converge_s,
        "latency_samples": len(everything),
        # None where the workload has no such phase (deepstat: no writes).
        "sim_mkdir_ops_per_s": None,
        "sim_create_ops_per_s": None,
        "sim_write_p99_us": _percentile(writes, 0.99) * 1e6 if writes
        else None,
        "sim_stat_p99_us": _percentile(lat["stat"], 0.99) * 1e6,
    }
    for name, start, end in rep.phase_spans:
        rep.sim[f"sim_{name}_ops_per_s"] = phase_ops[name] / (end - start)
    return rep
