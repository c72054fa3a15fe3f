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

from typing import Any, Dict, Generator, Optional, Tuple

from repro.sim.core import Environment, Event, Interrupt
from repro.sim.costs import CostModel
from repro.sim.resources import BookedPool, Resource
from repro.sim.rng import RngStreams
from repro.sim.trace import NULL_TRACER

__all__ = ["Node", "Network", "Service", "Cluster", "NodeDownError",
           "MessageDropped"]


class Node:
    """A cluster node: identity plus CPU and NIC contention points."""

    def __init__(self, env: Environment, node_id: int, name: str,
                 nic_channels: int):
        self.env = env
        self.node_id = node_id
        self.name = name
        self.cpu = Resource(env, capacity=24, name=f"{name}.cpu")
        #: ``nic_channels`` FIFO channels, booked when a message reaches
        #: them (``docs/simulation-model.md``, "The fabric").
        self.nic = BookedPool(env, nic_channels, f"{name}.nic")
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

    def __init__(self, env: Environment, costs: CostModel):
        self.env = env
        #: The fabric constants: ``net_latency``, ``net_msg_overhead``,
        #: ``net_bandwidth`` and ``local_loopback``.
        self.costs = costs
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

    def heal(self, cut_id: int) -> None:
        """Remove one partition cut."""
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

    # -- hops ----------------------------------------------------------
    # A hop has no generator of its own: the process that sends the
    # message sleeps in its own frame, and these three steps hold every
    # rule of the hop (docs/simulation-model.md, "The fabric"):
    #
    #     t, mark, ctx = net.depart(src, dst, nbytes)
    #     try:
    #         yield (t,)
    #         if src is not dst:
    #             yield (net.receive(src, dst, mark),)
    #         net.deliver(src, dst, mark)
    #     finally:
    #         if ctx is not None:
    #             net.end_span(ctx)
    #
    # Liveness is checked at send for the source only; the fate of the
    # destination is decided at delivery — a message to a node that fails
    # mid-flight is dropped, not delivered, and a send to an already-dead
    # or partitioned destination spends its network time before the drop
    # surfaces (the sender cannot know the far end is gone any sooner).
    def depart(self, src: Node, dst: Node,
               nbytes: int) -> Tuple[float, int, Any]:
        """Send ``nbytes`` from ``src`` to ``dst``: the source must be up;
        the message is counted, opens a ``net`` span when the sending
        process is traced, and books the sender NIC (a loopback: the
        node's NIC for the stack's time).

        Returns ``(t, mark, ctx)``: the instant to sleep until (the
        sender booking's end plus the latency: the arrival at the
        receiver NIC; a loopback's delivery), the destination's fate at
        send for :meth:`receive` and :meth:`deliver`, and the span context
        (None when untraced).
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
        c = self.costs
        if src is dst:
            # Loopback still burns stack/CPU time and contends with real
            # NIC traffic on the node (kernel TCP path).
            return (src.nic.book(c.local_loopback) if c.local_loopback > 0
                    else env.now), dst.incarnation, ctx
        # The fate mark is the destination's incarnation, which catches a
        # fail()+recover() cycle completing mid-flight; an already-dead or
        # partitioned destination dooms the message with -1, which no
        # incarnation equals (a later cut cannot doom it retroactively).
        # ``_cuts`` is tested first: no call while nothing is cut.
        if not dst.alive or self._cuts and self.is_partitioned(src, dst):
            mark = -1
        else:
            mark = dst.incarnation
        # The sender NIC serializes the message onto the fabric, then it
        # propagates.
        return (src.nic.book(c.net_msg_overhead + nbytes / c.net_bandwidth)
                + c.net_latency), mark, ctx

    def receive(self, src: Node, dst: Node, mark: int) -> float:
        """A remote message reaches the receiver NIC: dropped on the wire
        (the NIC never sees it) if its destination was doomed at send, is
        down or restarted, or is cut off now; else the receiver NIC books
        it — fan-in contention happens here — and the booking's end is
        returned."""
        if (dst.incarnation != mark or not dst.alive
                or self._cuts and self.is_partitioned(src, dst)):
            self.note_dropped()
            raise MessageDropped(
                f"message {src.name}->{dst.name} dropped in flight")
        return dst.nic.book(self.costs.net_msg_overhead)

    def deliver(self, src: Node, dst: Node, mark: int) -> None:
        """The hop ends: the message is dropped if its destination died
        during the receiver booking (or, on a loopback, is down)."""
        if src is dst:
            if not dst.alive:
                self.note_dropped()
                raise MessageDropped(
                    f"node {dst.name} died during loopback delivery")
        elif not dst.alive or dst.incarnation != mark:
            self.note_dropped()
            raise MessageDropped(
                f"destination node {dst.name} died in flight")

    def end_span(self, ctx: Any) -> None:
        """Close a hop's ``net`` span now: at delivery, at a drop, or at
        the strike that interrupted its sender."""
        self.tracer.span_end(self.env.now, "net", ctx)


class Service:
    """An RPC-style actor: a worker pool on a node plus its operations.

    Callers use :meth:`request`, which drives the request hop, the
    service and the response hop from its own frame.  Exceptions from an
    operation are delivered to the caller after the response hop (errors
    travel on the wire like any reply).

    An operation is served in one of two ways:

    * **Parked** (the default): a generator method ``handle_<op>``, run
      once the request holds a :class:`Resource` worker, so its service
      time can depend on state read at service start (an inode cache, an
      LSM lookup).
    * **Booked**: a service whose service time is known when a request
      arrives sets :attr:`verbs` (plain functions by name), makes
      ``pool`` a :class:`BookedPool` and defines ``service_time(op)``;
      the request books a worker on arrival, sleeps once until the
      booking's end and runs the verb there, if the node kept its arrival
      incarnation to that end (``docs/simulation-model.md``, "The cache
      shard").

    When the driving process carries a :class:`~repro.sim.trace.SpanContext`
    the worker-pool wait and the service each emit a child span, tagged
    with the class's attribution categories below (subclasses that sit on
    a client critical path override these with real buckets).
    """

    #: Span category for time spent waiting on the worker pool.
    span_queue_category = "svc_queue"
    #: Span category for time spent inside the handler (or verb hold).
    span_service_category = "svc_service"
    #: The worker pool's class.
    pool = Resource
    #: A booked service's operations, by name (its ``service_time(op)``
    #: gives each one's worker hold); None for ``handle_<op>``.
    verbs: Optional[Dict[str, Any]] = None

    def __init__(self, cluster: "Cluster", node: Node, name: str,
                 workers: int = 1):
        self.cluster = cluster
        self.env = cluster.env
        self.costs = cluster.costs
        self.node = node
        self.name = name
        self.workers = self.pool(cluster.env, workers, f"{name}.workers")
        self.requests_served = 0

    def request(self, src: Node, method: str, *args,
                req_size: Optional[int] = None,
                resp_size: Optional[int] = None,
                **kwargs) -> Generator[Event, Any, Any]:
        """Full RPC round trip from ``src`` to this service."""
        verbs = self.verbs
        if verbs is None:
            op = getattr(self, "handle_" + method, None)
        else:
            op = verbs.get(method)
        if op is None:
            raise AttributeError(f"{type(self).__name__} has no handler for"
                                 f" {method!r}")
        req_bytes = (self.costs.request_header_size
                     if req_size is None else req_size)
        resp_bytes = (self.costs.request_header_size
                      if resp_size is None else resp_size)
        env = self.env
        net = self.cluster.network
        node = self.node
        tracer = self.cluster.tracer
        proc = None
        if tracer.enabled and tracer.traces(env.active_process):
            proc = env.active_process
        t, mark, ctx = net.depart(src, node, req_bytes)
        try:
            yield (t,)
            if src is not node:
                yield (net.receive(src, node, mark),)
            net.deliver(src, node, mark)
        finally:
            if ctx is not None:
                net.end_span(ctx)
        arrival = node.incarnation
        qctx = None
        if proc is not None:
            qctx = tracer.open_child(proc, env.now, self.name,
                                     self.span_queue_category, method)
        error: Optional[BaseException] = None
        result = None
        if verbs is not None:
            workers = self.workers
            if qctx is not None:
                start = workers.next_start()
            end = workers.book(self.service_time(method))
            try:
                yield (end,)
            finally:
                # The spans a park would have written at the grant and at
                # the end of the hold; none for the hold while a strike
                # lands before the booking starts.
                if qctx is not None and env.now >= start:
                    tracer.span_end(start, self.name, qctx)
                    sctx = tracer.open_child(proc, start, self.name,
                                             self.span_service_category,
                                             method)
                    if sctx is not None:
                        tracer.span_end(env.now, self.name, sctx)
            if not node.alive or node.incarnation != arrival:
                # The node died while the request was booked: the verb
                # never runs and no response is sent.
                net.note_dropped()
                raise MessageDropped(
                    f"service {self.name} node {node.name} died before"
                    f" {method!r} ran")
            try:
                result = op(*args, **kwargs)
            except Exception as exc:  # domain errors ride the response wire
                error = exc
        else:
            yield self.workers
            if qctx is not None:
                tracer.span_end(env.now, self.name, qctx)
            if not node.alive or node.incarnation != arrival:
                # The service's node died while the request sat in the
                # worker queue: the handler never runs and no response is
                # sent.
                self.workers.release()
                net.note_dropped()
                raise MessageDropped(
                    f"service {self.name} node {node.name} died while"
                    f" {method!r} was queued")
            sctx = None
            if proc is not None:
                sctx = tracer.open_child(proc, env.now, self.name,
                                         self.span_service_category, method)
            try:
                result = yield from op(*args, **kwargs)
            except (NodeDownError, Interrupt):
                # An Interrupt is the *caller* being killed mid-request
                # (node crash), not a domain error: holding it for the
                # response wire would let the dead-destination hop replace
                # it with MessageDropped, silently un-killing the caller.
                raise
            except Exception as exc:  # domain errors ride the response wire
                error = exc
            finally:
                self.workers.release()
                if sctx is not None:
                    tracer.span_end(env.now, self.name, sctx)
        self.requests_served += 1
        t, mark, ctx = net.depart(node, src, resp_bytes)
        try:
            yield (t,)
            if node is not src:
                yield (net.receive(node, src, mark),)
            net.deliver(node, src, mark)
        finally:
            if ctx is not None:
                net.end_span(ctx)
        if error is not None:
            raise error
        return result


class Cluster:
    """Container for one simulated deployment: env + costs + nodes + net."""

    def __init__(self, costs: Optional[CostModel] = None, seed: int = 0xC0FFEE):
        self.env = Environment()
        self.costs = costs if costs is not None else CostModel()
        self.network = Network(self.env, self.costs)
        self.rng = RngStreams(seed)
        self.nodes: list[Node] = []
        # Swapped in by MetricsHub.attach_region (shared with the network);
        # services consult it for span-context propagation.
        self.tracer = NULL_TRACER

    def add_node(self, name: str = "") -> Node:
        node_id = len(self.nodes)
        node = Node(self.env, node_id, name or f"node{node_id}",
                    nic_channels=self.costs.nic_channels)
        self.nodes.append(node)
        return node

    def add_nodes(self, count: int, prefix: str = "node") -> list[Node]:
        return [self.add_node(f"{prefix}{i + len(self.nodes)}")
                for i in range(count)]
