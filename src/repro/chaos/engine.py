"""The chaos engine: faults as first-class simulation events (§III.G).

A :class:`ChaosSchedule` declares *what* fails and *when*; the
:class:`ChaosEngine` turns each fault into a DES process that sleeps
until the fault's instant, injects it against a live deployment, holds
it for the fault's duration, and drives the matching recovery.  All
randomness comes from the cluster's seeded RNG streams, so the fault
schedule — like everything else in the simulation — is deterministic
per seed.

Every fault kind is one ``(inject, recover)`` row of
:attr:`ChaosEngine.FAULTS`; the engine wraps a row's halves in the shared
trace/counter/timeline bookkeeping, and each half is callable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from inspect import isgenerator
from typing import Any, List, Tuple

from repro.core.failure import (
    fail_mds,
    fail_node,
    recover_mds,
    recover_node,
)
from repro.sim.network import Network

__all__ = ["Fault", "FaultRecord", "ChaosSchedule", "ChaosEngine"]


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
        if self.kind not in ChaosEngine.FAULTS:
            raise ValueError(f"unknown fault kind {self.kind!r};"
                             f" pick from {tuple(ChaosEngine.FAULTS)}")
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

    def __init__(self, deployment, region, schedule: ChaosSchedule):
        self.deployment = deployment
        self.region = region
        self.schedule = schedule
        self.env = region.env
        self.records: List[FaultRecord] = []
        self.lost_ops = 0
        self.lost_cache_entries = 0
        self._procs: List[Any] = []

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
    def _crash_node(self, record: FaultRecord):
        """Crash one region node (cache shard wiped, queued + in-flight ops
        destroyed, commit process killed); recovery restarts the commit
        process and re-publishes destroyed barrier markers.  Destructive:
        the lost ops are accounted exactly, not replayed."""
        node = self.region.nodes[record.target % len(self.region.nodes)]
        report = fail_node(self.region, node)
        record.lost_ops = report.lost_queued_ops
        record.lost_cache_entries = report.lost_cache_entries
        record.detail = node.name
        return self.region, node

    def _crash_mds(self, record: FaultRecord):
        """Crash the DFS metadata server's node mid-commit.  Clients keep
        working against the cache; commit processes replay lost round
        trips on recovery (idempotent via commit tokens) — zero loss."""
        dfs = self.deployment.dfs
        record.detail = fail_mds(dfs, record.target).node.name
        return dfs, record.target

    def _partition(self, record: FaultRecord):
        """Cut the network between the region nodes and the DFS servers.
        Messages crossing the cut drop at delivery; commit replays bridge
        the gap after heal — zero loss."""
        dfs, network = self.deployment.dfs, self.region.cluster.network
        members = self.region.nodes
        servers = [srv.node for srv in (*dfs.mds_servers, *dfs.data_servers)
                   if srv.node not in members]
        cut = network.partition(members, servers)
        record.detail = f"cut#{cut}"
        return network, cut

    def _churn_in(self, record: FaultRecord):
        """Planned membership churn on the DHT ring: grow the region onto a
        fresh node, retire that node again at recovery — zero loss."""
        cluster = self.region.cluster
        seq = sum(n.name.startswith("churn") for n in cluster.nodes)
        node = cluster.add_node(f"churn{record.target}_{seq}")
        moved = yield from self.deployment.grow_region_async(self.region,
                                                             node)
        record.detail = f"{node.name} +{moved}"
        return self, record, node

    def _churn_out(self, record: FaultRecord, node):
        moved = yield from self.deployment.retire_node_async(self.region,
                                                             node)
        record.detail += f" -{moved}"

    #: kind -> (inject, recover), each half callable on its own:
    #: ``inject(engine, record)`` notes what it did on the record and
    #: returns the arguments for ``recover``.  Churn's halves take
    #: simulated time (records migrate), so they alone are generators.
    FAULTS = {
        "node_crash": (_crash_node, recover_node),
        "mds_crash": (_crash_mds, recover_mds),
        "partition": (_partition, Network.heal),
        "cache_churn": (_churn_in, _churn_out),
    }

    def _run_fault(self, fault: Fault):
        yield float(fault.at)
        region, injected_at = self.region, self.env.now
        record = FaultRecord(kind=fault.kind, target=fault.target,
                             injected_at=injected_at, recovered_at=-1.0)
        label = f"{fault.kind}[{fault.target}]"
        if region.tracer.enabled:
            region.tracer.emit(injected_at, "chaos", "inject", label)
        inject_seq = -1
        if region.hub.enabled:
            region.hub.count("chaos.injected")
            region.hub.count(f"chaos.fault.{fault.kind}")
            inject_seq = region.hub.timeline.record(
                injected_at, "chaos", "fault.injected", label)

        inject, recover = self.FAULTS[fault.kind]
        args = inject(self, record)
        if isgenerator(args):
            args = yield from args
        self.lost_ops += record.lost_ops
        self.lost_cache_entries += record.lost_cache_entries
        yield float(fault.duration)
        step = recover(*args)
        if isgenerator(step):
            yield from step

        record.recovered_at = now = self.env.now
        self.records.append(record)
        if region.tracer.enabled:
            region.tracer.emit(now, "chaos", "recover", label)
        if region.hub.enabled:
            region.hub.count("chaos.recovered")
            region.hub.observe("chaos.downtime", now - injected_at)
            region.hub.timeline.record(
                now, "chaos", "fault.recovered", label,
                detail=record.detail, ref=inject_seq)
        return record
