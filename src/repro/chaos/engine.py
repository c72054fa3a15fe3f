"""The chaos engine: faults as first-class simulation events (§III.G).

A :class:`ChaosSchedule` declares *what* fails and *when*; the
:class:`ChaosEngine` turns each fault into a DES process that sleeps
until the fault's instant, injects it against a live deployment, holds
it for the fault's duration, and drives the matching recovery.  All
randomness comes from the cluster's seeded RNG streams, so the fault
schedule — like everything else in the simulation — is deterministic
per seed.

Fault kinds:

``node_crash``
    Crash one region node (cache shard wiped, queued + in-flight ops
    destroyed, commit process killed); recover restarts the commit
    process and re-publishes destroyed barrier markers.  Destructive:
    the lost ops are accounted exactly, not replayed.
``mds_crash``
    Crash the DFS metadata server's node mid-commit.  Pacon clients keep
    working against the cache; commit processes replay lost round trips
    on recovery (idempotent via commit tokens) — zero loss.
``partition``
    Cut the network between two node sets (by default: region nodes vs.
    the DFS servers).  Messages crossing the cut drop at delivery;
    commit replays bridge the gap after heal — zero loss.
``cache_churn``
    Planned membership churn on the DHT ring: grow the region onto a
    fresh node, then retire that node again at recovery — zero loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.failure import (
    fail_mds,
    fail_node,
    recover_mds,
    recover_node,
)

__all__ = ["Fault", "FaultRecord", "ChaosSchedule", "ChaosEngine"]

FAULT_KINDS = ("node_crash", "mds_crash", "partition", "cache_churn")


@dataclass
class Fault:
    """One scheduled fault: what, when, and for how long (sim seconds)."""

    kind: str
    at: float
    duration: float
    #: Kind-specific target: node index for node_crash, MDS index for
    #: mds_crash; unused (engine-chosen) for partition and cache_churn.
    target: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r};"
                             f" pick from {FAULT_KINDS}")
        if self.at < 0 or self.duration <= 0:
            raise ValueError(f"fault needs at >= 0 and duration > 0,"
                             f" got at={self.at}, duration={self.duration}")


@dataclass
class FaultRecord:
    """What one fault actually did."""

    kind: str
    target: int
    injected_at: float
    recovered_at: float
    lost_ops: int = 0
    lost_cache_entries: int = 0
    detail: str = ""


@dataclass
class ChaosSchedule:
    """A declarative list of faults, plus its provenance."""

    faults: List[Fault] = field(default_factory=list)
    source: str = "explicit"

    def add(self, kind: str, at: float, duration: float,
            target: int = 0) -> "ChaosSchedule":
        self.faults.append(Fault(kind=kind, at=at, duration=duration,
                                 target=target))
        return self

    @classmethod
    def poisson(cls, rng, kinds: Tuple[str, ...], *, mttf: float,
                mttr: float, horizon: float, targets: int = 1,
                ) -> "ChaosSchedule":
        """Memoryless fault arrivals off a seeded RNG stream.

        ``rng`` is a numpy Generator, e.g.
        ``cluster.rng.stream("chaos")``.  Inter-fault gaps are
        exponential with mean ``mttf``; each fault lasts an exponential
        ``mttr`` (floored at 1% of the mean so a zero-length outage
        can't degenerate into a no-op) and targets a uniformly drawn
        index below ``targets``.  Same stream + same parameters =>
        byte-identical schedule, which the determinism tests assert via
        :meth:`signature`.
        """
        schedule = cls(source=f"poisson(mttf={mttf},mttr={mttr})")
        t = float(rng.exponential(mttf))
        while t < horizon:
            kind = kinds[int(rng.integers(len(kinds)))]
            duration = max(0.01 * mttr, float(rng.exponential(mttr)))
            target = int(rng.integers(targets)) if targets > 1 else 0
            schedule.add(kind, at=t, duration=duration, target=target)
            t += float(rng.exponential(mttf))
        return schedule

    def signature(self) -> Tuple:
        """Hashable fingerprint for same-seed determinism assertions."""
        return tuple((f.kind, round(f.at, 12), round(f.duration, 12),
                      f.target) for f in self.faults)

    def __len__(self) -> int:
        return len(self.faults)


class ChaosEngine:
    """Schedules a :class:`ChaosSchedule` against a live deployment."""

    def __init__(self, deployment, region, schedule: ChaosSchedule,
                 dfs=None):
        self.deployment = deployment
        self.region = region
        self.schedule = schedule
        self.dfs = dfs if dfs is not None else deployment.dfs
        self.env = region.env
        self.records: List[FaultRecord] = []
        self.lost_ops = 0
        self.lost_cache_entries = 0
        self._procs: List[Any] = []
        self._churn_nodes: Dict[int, Any] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ChaosEngine":
        """Spawn one DES process per scheduled fault."""
        for i, fault in enumerate(self.schedule.faults):
            proc = self.env.process(
                self._run_fault(fault),
                label=f"chaos:{fault.kind}[{i}]@{fault.at:g}")
            self._procs.append(proc)
        return self

    def wait_done(self):
        """Generator: wait until every fault has injected and recovered."""
        for proc in self._procs:
            if proc.is_alive:
                yield proc

    # -- fault drivers ------------------------------------------------------
    def _run_fault(self, fault: Fault):
        yield self.env.timeout(fault.at)
        hub = self.region.hub
        tracer = self.region.tracer
        injected_at = self.env.now
        record = FaultRecord(kind=fault.kind, target=fault.target,
                             injected_at=injected_at, recovered_at=-1.0)
        if tracer.enabled:
            tracer.emit(injected_at, "chaos", "inject",
                        f"{fault.kind}[{fault.target}]")
        inject_seq = -1
        if hub.enabled:
            hub.count("chaos.injected")
            hub.count(f"chaos.fault.{fault.kind}")
            inject_seq = hub.timeline.record(
                injected_at, "chaos", "fault.injected",
                f"{fault.kind}[{fault.target}]")

        if fault.kind == "node_crash":
            node = self.region.nodes[fault.target % len(self.region.nodes)]
            report = fail_node(self.region, node)
            record.lost_ops = report.lost_queued_ops
            record.lost_cache_entries = report.lost_cache_entries
            record.detail = node.name
            self.lost_ops += report.lost_queued_ops
            self.lost_cache_entries += report.lost_cache_entries
            yield self.env.timeout(fault.duration)
            recover_node(self.region, node)
        elif fault.kind == "mds_crash":
            server = fail_mds(self.dfs, fault.target)
            record.detail = server.node.name
            yield self.env.timeout(fault.duration)
            recover_mds(self.dfs, fault.target)
        elif fault.kind == "partition":
            network = self.region.cluster.network
            side_a = [n.node_id for n in self.region.nodes]
            side_b = [srv.node.node_id
                      for srv in (list(self.dfs.mds_servers) +
                                  list(self.dfs.data_servers))
                      if srv.node.node_id not in side_a]
            cut = network.partition(side_a, side_b)
            record.detail = f"cut#{cut}"
            yield self.env.timeout(fault.duration)
            network.heal(cut)
        elif fault.kind == "cache_churn":
            node = self.region.cluster.add_node(
                f"churn{fault.target}_{len(self._churn_nodes)}")
            self._churn_nodes[id(node)] = node
            moved_in = yield from self.deployment.grow_region_async(
                self.region, node)
            record.detail = f"{node.name} +{moved_in}"
            yield self.env.timeout(fault.duration)
            moved_out = yield from self.deployment.retire_node_async(
                self.region, node)
            record.detail += f" -{moved_out}"

        record.recovered_at = self.env.now
        self.records.append(record)
        if tracer.enabled:
            tracer.emit(self.env.now, "chaos", "recover",
                        f"{fault.kind}[{fault.target}]")
        if hub.enabled:
            hub.count("chaos.recovered")
            hub.observe("chaos.downtime", self.env.now - injected_at)
            hub.timeline.record(
                self.env.now, "chaos", "fault.recovered",
                f"{fault.kind}[{fault.target}]",
                detail=record.detail, ref=inject_seq)
        return record
