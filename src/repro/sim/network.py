"""Cluster and network model: nodes, message costs, RPC-style services.

The fabric model is deliberately simple — uniform one-way latency plus
bandwidth serialization plus per-message NIC occupancy at both endpoints —
because the paper's performance story is about *where requests queue*
(a centralized MDS vs. a spread of client-side cache nodes), not about
topology.  NIC occupancy at the destination is what makes a hot server
(e.g. the single BeeGFS MDS) saturate under fan-in, reproducing the
flat scalability curves in Figs. 1 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.sim.core import Environment, Event, Interrupt
from repro.sim.costs import CostModel
from repro.sim.resources import Resource
from repro.sim.rng import RngStreams
from repro.sim.trace import NULL_TRACER

__all__ = ["Node", "NetworkParams", "Network", "Service", "Cluster",
           "NodeDownError", "MessageDropped"]


@dataclass(frozen=True)
class NetworkParams:
    """Fabric constants extracted from a :class:`CostModel`."""

    latency: float
    msg_overhead: float
    bandwidth: float
    local_loopback: float

    @classmethod
    def from_costs(cls, costs: CostModel) -> "NetworkParams":
        return cls(
            latency=costs.net_latency,
            msg_overhead=costs.net_msg_overhead,
            bandwidth=costs.net_bandwidth,
            local_loopback=costs.local_loopback,
        )


class Node:
    """A cluster node: identity plus CPU and NIC contention points."""

    def __init__(self, env: Environment, node_id: int, name: str,
                 cores: int = 24, nic_channels: int = 2):
        self.env = env
        self.node_id = node_id
        self.name = name
        self.cores = cores
        self.cpu = Resource(env, capacity=cores, name=f"{name}.cpu")
        self.nic = Resource(env, capacity=nic_channels, name=f"{name}.nic")
        self.alive = True
        #: Bumped on every :meth:`fail` so in-flight messages addressed to
        #: the previous incarnation are dropped at delivery even if the
        #: node recovered in the meantime (a crash-recover cycle must not
        #: resurrect messages sent to the dead incarnation).
        self.incarnation = 0

    def fail(self) -> None:
        """Mark the node dead (failure-injection hook, §III.G)."""
        self.alive = False
        self.incarnation += 1

    def recover(self) -> None:
        self.alive = True


class NodeDownError(ConnectionError):
    """Raised when a message is sent to or from a failed node."""


class MessageDropped(NodeDownError):
    """A message was dropped in flight (dead destination or partition).

    Subclasses :class:`NodeDownError` so callers that already treat the
    destination as unreachable handle mid-flight loss the same way; the
    distinction is *when* the loss was detected (delivery, not send).
    """


class Network:
    """Uniform-fabric message transport between nodes."""

    def __init__(self, env: Environment, params: NetworkParams):
        self.env = env
        self.params = params
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Messages dropped at delivery time (dead/restarted destination
        #: or an active partition cut) — the `net.dropped` metric.
        self.dropped = 0
        #: Active partition cuts: cut_id -> (frozenset_a, frozenset_b) of
        #: node ids.  Empty dict on the hot path costs one truthiness test.
        self._cuts: Dict[int, Any] = {}
        self._next_cut_id = 0
        # Swapped in by MetricsHub.attach_region; transfers emit `network`
        # child spans when the driving process carries a span context.
        self.tracer = NULL_TRACER
        # Optional MetricsHub (installed by attach_region) counting drops.
        self.hub = None

    # -- partitions ----------------------------------------------------
    def partition(self, side_a, side_b) -> int:
        """Install a partition cut between two node sets; returns cut id.

        ``side_a``/``side_b`` are iterables of :class:`Node` or node ids.
        Messages crossing the cut (either direction) are dropped at
        delivery time until :meth:`heal` removes the cut.
        """
        ids_a = frozenset(n.node_id if isinstance(n, Node) else int(n)
                          for n in side_a)
        ids_b = frozenset(n.node_id if isinstance(n, Node) else int(n)
                          for n in side_b)
        if ids_a & ids_b:
            raise ValueError(
                f"partition sides overlap: {sorted(ids_a & ids_b)}")
        cut_id = self._next_cut_id
        self._next_cut_id += 1
        self._cuts[cut_id] = (ids_a, ids_b)
        return cut_id

    def heal(self, cut_id: Optional[int] = None) -> None:
        """Remove one partition cut (or all of them when id is None)."""
        if cut_id is None:
            self._cuts.clear()
        else:
            self._cuts.pop(cut_id)

    def is_partitioned(self, src: Node, dst: Node) -> bool:
        if not self._cuts:
            return False
        a, b = src.node_id, dst.node_id
        for ids_a, ids_b in self._cuts.values():
            if (a in ids_a and b in ids_b) or (a in ids_b and b in ids_a):
                return True
        return False

    def note_dropped(self) -> None:
        self.dropped += 1
        if self.hub is not None:
            self.hub.count("net.dropped")

    def transfer(self, src: Node, dst: Node,
                 nbytes: int) -> Generator[Event, Any, None]:
        """Deliver ``nbytes`` from ``src`` to ``dst``; yields until done.

        Liveness is checked at *send* for the source only; the fate of the
        destination is decided at delivery time — a message to a node that
        fails mid-flight is dropped, not delivered, and a send to an
        already-dead or partitioned destination spends its network time
        before the drop surfaces (the sender cannot know the far end is
        gone any sooner).

        The whole hop is this one generator: the NIC holds are inlined
        (not ``yield from nic.use(...)``) so each resume below
        ``Service.request`` crosses one frame.  Host cost only — the
        events are exactly those ``Resource.use`` would schedule.
        """
        if not src.alive:
            raise NodeDownError(f"source node {src.name} is down")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        env = self.env
        tracer = self.tracer
        ctx = None
        if tracer.enabled and tracer.traces(env.active_process):
            ctx = tracer.open_child(env.active_process, env.now, "net",
                                    "network", f"{src.name}->{dst.name}")
        p = self.params
        try:
            if src is dst:
                # Loopback still burns stack/CPU time and contends with
                # real NIC traffic on the node (kernel TCP path).
                if p.local_loopback > 0:
                    nic = src.nic
                    yield nic
                    try:
                        yield p.local_loopback
                    finally:
                        nic.release()
                if not dst.alive:
                    self.note_dropped()
                    raise MessageDropped(
                        f"node {dst.name} died during loopback delivery")
                return
            # Snapshot destination fate at send time: an already-dead or
            # partitioned destination dooms the message, and the
            # incarnation mark catches a fail()+recover() cycle completing
            # mid-flight.
            # ``_cuts`` is tested first: no call while nothing is cut.
            # ``doomed`` must stay a bool (``self._cuts and ...`` would
            # keep the live dict, and a later cut would doom the message).
            doomed = not dst.alive
            if self._cuts and not doomed:
                doomed = self.is_partitioned(src, dst)
            mark = dst.incarnation
            # Sender NIC serializes the message onto the fabric.
            nic = src.nic
            yield nic
            try:
                yield p.msg_overhead + nbytes / p.bandwidth
            finally:
                nic.release()
            # Propagation.
            if p.latency > 0:
                yield p.latency
            if (doomed or not dst.alive or dst.incarnation != mark
                    or self._cuts and self.is_partitioned(src, dst)):
                # Dropped on the wire: the receiver NIC never sees it.
                self.note_dropped()
                raise MessageDropped(
                    f"message {src.name}->{dst.name} dropped in flight")
            # Receiver NIC processes the arrival; fan-in contention
            # happens here.
            nic = dst.nic
            yield nic
            try:
                yield p.msg_overhead
            finally:
                nic.release()
            if not dst.alive or dst.incarnation != mark:
                self.note_dropped()
                raise MessageDropped(
                    f"destination node {dst.name} died in flight")
        finally:
            if ctx is not None:
                tracer.span_end(env.now, "net", ctx)


class Service:
    """An RPC-style actor: a worker pool on a node plus handler methods.

    Subclasses define generator methods named ``handle_<op>``.  Callers use
    :meth:`request`, which charges the request hop, queues on the worker
    pool, runs the handler, and charges the response hop.  Exceptions from
    handlers are delivered to the caller after the response hop (errors
    travel on the wire like any reply).

    When the driving process carries a :class:`~repro.sim.trace.SpanContext`
    the worker-pool wait and the handler execution each emit a child span,
    tagged with the class's attribution categories below (subclasses that
    sit on a client critical path override these with real buckets).
    """

    #: Span category for time spent waiting on the worker pool.
    span_queue_category = "svc_queue"
    #: Span category for time spent inside the handler.
    span_service_category = "svc_service"

    def __init__(self, cluster: "Cluster", node: Node, name: str,
                 workers: int = 1):
        self.cluster = cluster
        self.env = cluster.env
        self.costs = cluster.costs
        self.node = node
        self.name = name
        self.workers = Resource(cluster.env, capacity=workers,
                                name=f"{name}.workers")
        self.requests_served = 0
        self.requests_by_method: Dict[str, int] = {}

    def request(self, src: Node, method: str, *args,
                req_size: Optional[int] = None,
                resp_size: Optional[int] = None,
                **kwargs) -> Generator[Event, Any, Any]:
        """Full RPC round trip from ``src`` to this service."""
        handler = getattr(self, "handle_" + method, None)
        if handler is None:
            raise AttributeError(f"{type(self).__name__} has no handler for"
                                 f" {method!r}")
        req_bytes = (self.costs.request_header_size
                     if req_size is None else req_size)
        resp_bytes = (self.costs.request_header_size
                      if resp_size is None else resp_size)
        net = self.cluster.network
        tracer = self.cluster.tracer
        proc = None
        if tracer.enabled and tracer.traces(self.env.active_process):
            proc = self.env.active_process
        yield from net.transfer(src, self.node, req_bytes)
        mark = self.node.incarnation
        qctx = None
        if proc is not None:
            qctx = tracer.open_child(proc, self.env.now, self.name,
                                     self.span_queue_category, method)
        yield self.workers
        if qctx is not None:
            tracer.span_end(self.env.now, self.name, qctx)
        if not self.node.alive or self.node.incarnation != mark:
            # The service's node died while the request sat in the worker
            # queue: the handler never runs and no response is sent.
            self.workers.release()
            net.note_dropped()
            raise MessageDropped(
                f"service {self.name} node {self.node.name} died while"
                f" {method!r} was queued")
        sctx = None
        if proc is not None:
            sctx = tracer.open_child(proc, self.env.now, self.name,
                                     self.span_service_category, method)
        error: Optional[BaseException] = None
        result = None
        try:
            result = yield from handler(*args, **kwargs)
        except (NodeDownError, Interrupt):
            # An Interrupt is the *caller* being killed mid-request (node
            # crash), not a domain error: holding it for the response
            # wire would let the dead-destination transfer replace it
            # with MessageDropped, silently un-killing the caller.
            raise
        except Exception as exc:  # domain errors ride the response wire
            error = exc
        finally:
            self.workers.release()
            if sctx is not None:
                tracer.span_end(self.env.now, self.name, sctx)
        self.requests_served += 1
        self.requests_by_method[method] = (
            self.requests_by_method.get(method, 0) + 1)
        yield from net.transfer(self.node, src, resp_bytes)
        if error is not None:
            raise error
        return result


class Cluster:
    """Container for one simulated deployment: env + costs + nodes + net."""

    def __init__(self, costs: Optional[CostModel] = None, seed: int = 0xC0FFEE):
        self.env = Environment()
        self.costs = costs if costs is not None else CostModel()
        self.network = Network(self.env,
                               NetworkParams.from_costs(self.costs))
        self.rng = RngStreams(seed)
        self.nodes: list[Node] = []
        # Swapped in by MetricsHub.attach_region (shared with the network);
        # services consult it for span-context propagation.
        self.tracer = NULL_TRACER

    def add_node(self, name: str = "", cores: int = 24) -> Node:
        node_id = len(self.nodes)
        node = Node(self.env, node_id, name or f"node{node_id}", cores=cores,
                    nic_channels=self.costs.nic_channels)
        self.nodes.append(node)
        return node

    def add_nodes(self, count: int, prefix: str = "node",
                  cores: int = 24) -> list[Node]:
        return [self.add_node(f"{prefix}{i + len(self.nodes)}", cores=cores)
                for i in range(count)]
