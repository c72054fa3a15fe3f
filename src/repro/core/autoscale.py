"""Load-driven elasticity: the region autoscaling control loop.

The paper fixes region membership at initialization (§III.B); λFS-style
elastic metadata serving shows the alternative — provision for the load
you have, not the load you fear.  :class:`Autoscaler` is a DES-native
controller that watches two signals every tick:

* **utilization** — windowed busy-fraction of the hottest region
  resource (node CPU, node NIC, or cache-shard worker pool), the same
  busy-time deltas the observability sampler exports as
  ``resource.util[*]``.  The *max* across resources (not the mean)
  governs: tail latency is set by the hottest node, and a freshly grown
  empty shard must not dilute the signal into premature shrink;
* **commit backlog** — queued commit messages per region node
  (``queue.backlog`` divided by membership).

and drives :meth:`PaconDeployment.grow_region_async` /
:meth:`retire_node_async` (one :meth:`Autoscaler._act` body, see
:data:`ACTIONS`) with three dampers so membership does not flap:

* **hysteresis** — separate high/low watermarks per signal plus a
  required streak of consecutive over/under ticks
  (``up_consecutive`` / ``down_consecutive``);
* **cooldown** — a minimum gap between scaling actions, covering the
  migration settle time;
* **bounds** — the pool never leaves ``[min_nodes, max_nodes]``.

The knobs are the region's :class:`AutoscalePolicy`
(``PaconConfig.autoscale``).  Scaling actions emit ``autoscale.*``
counters/series into the attached hub and
``autoscale.grow``/``autoscale.retire`` trace events, and every action is
recorded as an :class:`AutoscaleAction` for tests and the bench driver.

The controller composes with the chaos engine: a grow that races a node
crash either completes (crashed peers are skipped by the migration) or
fails with the node partially joined — both outcomes are recorded, never
raised out of the control loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional)

from repro.sim.core import Event, Interrupt
from repro.sim.network import Node, NodeDownError

if TYPE_CHECKING:  # repro.core.config imports AutoscalePolicy from here
    from repro.core.deploy import PaconDeployment
    from repro.core.region import ConsistentRegion

__all__ = ["Autoscaler", "AutoscaleAction", "AutoscalePolicy"]

#: Everything that differs between the two scaling actions: the
#: deployment generator that performs it, the failures it is expected to
#: meet (recorded, never raised out of the control loop), and the
#: attribute and hub counter that tally its successes.
ACTIONS = {
    "grow": ("grow_region_async", (NodeDownError,),
             "scale_ups", "autoscale.scale_up"),
    "retire": ("retire_node_async", (NodeDownError, ValueError, RuntimeError),
               "scale_downs", "autoscale.scale_down"),
}


@dataclass
class AutoscalePolicy:
    """The elastic controller's knobs for one region."""

    #: Pool bounds: the controller never shrinks the region below
    #: ``min_nodes`` or grows it beyond ``max_nodes``.
    min_nodes: int = 1
    max_nodes: int = 16

    #: Controller tick interval (simulated seconds) and the minimum gap
    #: between two scaling actions.  The cooldown is what keeps one burst
    #: from triggering a grow/retire/grow oscillation while migrations
    #: are still settling.
    interval: float = 1e-3
    cooldown: float = 3e-3

    #: Utilization watermarks over the hottest node's busiest resource
    #: (CPU, NIC, or cache-shard worker pool), windowed per tick.  Scale
    #: up above high, down below low — the gap is the hysteresis band.
    util_high: float = 0.75
    util_low: float = 0.20

    #: Commit backlog watermarks, in queued messages per region node.
    backlog_high: float = 32.0
    backlog_low: float = 2.0

    #: Consecutive over/under-watermark ticks required before acting —
    #: the temporal half of the hysteresis (shrinking demands a longer
    #: streak than growing, so transient lulls don't flap the pool).
    up_consecutive: int = 2
    down_consecutive: int = 4

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        if self.interval <= 0 or self.cooldown < 0:
            raise ValueError("interval must be > 0 and cooldown >= 0")
        if not (0.0 <= self.util_low < self.util_high <= 1.0):
            raise ValueError("need 0 <= util_low < util_high <= 1")
        if not (0.0 <= self.backlog_low < self.backlog_high):
            raise ValueError("need 0 <= backlog_low < backlog_high")
        if self.up_consecutive < 1 or self.down_consecutive < 1:
            raise ValueError("*_consecutive must be >= 1")


@dataclass
class AutoscaleAction:
    """One attempted scaling action, successful or not."""

    time: float
    kind: str            # "grow" | "retire"
    node: str            # node name
    reason: str          # "util" | "backlog" | "idle" | ...
    ok: bool
    latency: float = 0.0
    moved: int = 0       # records migrated (grow/retire)
    error: str = ""


class Autoscaler:
    """Elastic membership controller for one consistent region."""

    def __init__(self, deployment: PaconDeployment,
                 region: ConsistentRegion,
                 node_factory: Optional[Callable[[], Node]] = None):
        self.deployment = deployment
        self.region = region
        self.env = region.env
        self.policy = region.config.autoscale
        #: Called to provision a fresh node for each scale-up.  The
        #: default asks the cluster for one; benches hand in a factory
        #: that pops from a pre-built warm pool so every provisioning
        #: mode shares an identical cluster topology.
        self.node_factory = node_factory or self._default_factory
        self.actions: List[AutoscaleAction] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.rejected = 0
        self.failed = 0
        self._added: List[Node] = []     # retirement candidates, LIFO
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_at: Optional[float] = None
        self._next_node_seq = 0
        # Windowed-utilization state per resource: id -> [busy, t].
        self._util_state: Dict[int, List[float]] = {}
        self._process = None

    # -- wiring ------------------------------------------------------------
    def _default_factory(self) -> Node:
        safe = self.region.name.strip("/").replace("/", "_") or "region"
        name = f"{safe}.as{self._next_node_seq}"
        self._next_node_seq += 1
        return self.deployment.cluster.add_node(name)

    @property
    def hub(self):
        return self.region.hub

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Spawn the control loop; returns the Process (idempotent)."""
        if self._process is not None and self._process.is_alive:
            return self._process
        self._process = self.env.process(
            self.run(), label=f"autoscale:{self.region.name}")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("autoscaler stopped")

    def run(self) -> Generator[Event, Any, None]:
        """The control loop: sense, decide, (maybe) act, sleep.

        Exits on its own once the region's commit queues close (end of
        run), mirroring the gauge sampler, so a drained event heap stays
        drainable.
        """
        try:
            while True:
                queues = self.region.queues.queues()
                if queues and all(q.closed for q in queues):
                    return
                yield from self._tick()
                yield float(self.policy.interval)
        except Interrupt:
            return

    # -- sensing -----------------------------------------------------------
    def _sense_utilization(self) -> float:
        """Max windowed busy-fraction across the region's resources.

        First sight of a resource seeds its window from the current busy
        time, so it reads as an empty window (0.0) — a node that worked
        before joining must not fake a spike.
        """
        peak = 0.0
        for shard in self.region.shards:
            for resource in (shard.node.cpu, shard.node.nic, shard.workers):
                mark = self._util_state.get(id(resource))
                if mark is None:
                    mark = self._util_state[id(resource)] = [
                        resource.busy_time(), self.env.now]
                peak = max(peak, resource.window_utilization(mark))
        return peak

    # -- deciding ----------------------------------------------------------
    def _tick(self) -> Generator[Event, Any, None]:
        policy = self.policy
        region = self.region
        t = self.env.now
        util = self._sense_utilization()
        n_nodes = len(region.nodes)
        backlog = region.queues.total_backlog() / max(1, n_nodes)
        hub = self.hub
        if hub.enabled:
            hub.record_sample(f"autoscale.nodes[{region.name}]", t,
                              float(n_nodes))
            hub.record_sample(f"autoscale.util[{region.name}]", t, util)
            hub.record_sample(f"autoscale.backlog[{region.name}]", t,
                              backlog)
        overloaded = (util >= policy.util_high
                      or backlog >= policy.backlog_high)
        underloaded = (util <= policy.util_low
                       and backlog <= policy.backlog_low)
        self._up_streak = self._up_streak + 1 if overloaded else 0
        self._down_streak = self._down_streak + 1 if underloaded else 0
        if self._last_action_at is not None and \
                t - self._last_action_at < policy.cooldown:
            return
        if self._up_streak >= policy.up_consecutive:
            reason = "util" if util >= policy.util_high else "backlog"
            self._up_streak = 0
            if len(region.nodes) >= policy.max_nodes:
                self._reject("grow", reason)
                return
            yield from self._act("grow", self.node_factory(), reason)
        elif self._down_streak >= policy.down_consecutive:
            self._down_streak = 0
            if len(region.nodes) <= policy.min_nodes:
                return  # idle at the floor is steady state, not a fault
            candidate = self._retire_candidate()
            if candidate is None:
                self._reject("retire", "no_candidate")
                return
            yield from self._act("retire", candidate, "idle")

    def _retire_candidate(self) -> Optional[Node]:
        """Newest autoscaler-added node that can leave right now.

        Only nodes this controller added are ever retired — base nodes
        host clients and belong to the operator.  LIFO keeps churn on
        the youngest (emptiest) shard.
        """
        for node in reversed(self._added):
            if node in self.region.nodes and node.alive \
                    and self.region.clients_on_node.get(node.node_id,
                                                        0) == 0:
                return node
        return None

    def _reject(self, kind: str, reason: str) -> None:
        self.rejected += 1
        hub = self.hub
        if hub.enabled:
            hub.count("autoscale.rejected")
            hub.timeline.record(self.env.now, "autoscale",
                                "scale.rejected", kind, detail=reason)
        if self.region.tracer.enabled:
            self.region.tracer.emit(self.env.now, "autoscaler",
                                    "autoscale.rejected", f"{kind} {reason}")

    # -- acting ------------------------------------------------------------
    def _act(self, kind: str, node: Node,
             reason: str) -> Generator[Event, Any, None]:
        """Perform one scaling action (a row of :data:`ACTIONS`) on
        ``node`` and record its outcome, successful or not."""
        method, expected, tally, counter = ACTIONS[kind]
        region, hub, t0 = self.region, self.hub, self.env.now
        if region.tracer.enabled:
            region.tracer.emit(t0, "autoscaler", f"autoscale.{kind}",
                               f"{node.name} reason={reason}")
        action = AutoscaleAction(time=t0, kind=kind, node=node.name,
                                 reason=reason, ok=False)
        self.actions.append(action)
        self._last_action_at = t0
        failure = ""
        try:
            action.moved = yield from getattr(self.deployment, method)(
                region, node)
            action.ok = True
        except expected as exc:
            self.failed += 1
            failure = type(exc).__name__
            action.error = str(exc) or failure
            # A crash that raced a grow after the node joined keeps it: its
            # (partially migrated) shard refills from the DFS on demand.
            action.ok = kind == "grow" and node in region.nodes
        action.latency = self.env.now - t0
        if action.ok:
            setattr(self, tally, getattr(self, tally) + 1)
            if node in self._added:
                self._added.remove(node)
            if kind == "grow":
                self._added.append(node)
        if hub.enabled:
            # Failed attempts cost time too: every action records its
            # latency, a failure also a reason incident blame can rank.
            hub.observe("autoscale.action_latency", action.latency)
            if action.ok:
                hub.count(counter)
            if failure:
                hub.count("autoscale.action_failed")
                hub.count(f"autoscale.action_failed[{kind}:{failure}]")
                event = "scale.failed"
                detail = f"{kind} reason={reason} error={action.error}"
            else:
                event = f"scale.{kind}"
                detail = f"reason={reason} moved={action.moved}"
            hub.timeline.record(t0, "autoscale", event, node.name,
                                detail=detail, duration=action.latency)
