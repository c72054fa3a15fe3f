"""Unit tests for the cluster/network model and Service RPC plumbing."""

import pytest

from repro.sim.core import Interrupt, cancel_wait, run_sync
from repro.sim.costs import CostModel
from repro.sim.network import Cluster, MessageDropped, NodeDownError, Service
from repro.sim.trace import Tracer


@pytest.fixture
def cluster():
    return Cluster()


class EchoService(Service):
    def handle_echo(self, value):
        yield 10e-6
        return value

    def handle_boom(self):
        yield 1e-6
        raise ValueError("handler error")


class TestCluster:
    def test_add_node_assigns_ids(self, cluster):
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        assert (a.node_id, b.node_id) == (0, 1)
        assert cluster.nodes == [a, b]

    def test_add_nodes_bulk(self, cluster):
        nodes = cluster.add_nodes(4, prefix="client")
        assert len(nodes) == 4
        assert nodes[0].name == "client0"

    def test_default_costs(self, cluster):
        assert cluster.costs.net_latency == CostModel().net_latency


class TestNetworkTransfer:
    def test_remote_transfer_charges_latency(self, cluster):
        a, b = cluster.add_nodes(2)

        def proc():
            yield from cluster.network.transfer(a, b, 0)
            return cluster.env.now

        elapsed = run_sync(cluster.env, proc())
        p = cluster.network.params
        assert elapsed == pytest.approx(2 * p.msg_overhead + p.latency)

    def test_local_transfer_is_loopback(self, cluster):
        a = cluster.add_node("a")

        def proc():
            yield from cluster.network.transfer(a, a, 4096)
            return cluster.env.now

        elapsed = run_sync(cluster.env, proc())
        assert elapsed == pytest.approx(cluster.costs.local_loopback)

    def test_bandwidth_term_scales_with_size(self, cluster):
        a, b = cluster.add_nodes(2)

        def timed(nbytes):
            def proc():
                t0 = cluster.env.now
                yield from cluster.network.transfer(a, b, nbytes)
                return cluster.env.now - t0
            return run_sync(cluster.env, proc())

        small = timed(0)
        big = timed(50 * 1024 * 1024)
        expected_extra = 50 * 1024 * 1024 / cluster.network.params.bandwidth
        assert big - small == pytest.approx(expected_extra, rel=1e-6)

    def test_transfer_counters(self, cluster):
        a, b = cluster.add_nodes(2)

        def proc():
            yield from cluster.network.transfer(a, b, 100)
            yield from cluster.network.transfer(b, a, 200)

        run_sync(cluster.env, proc())
        assert cluster.network.messages_sent == 2
        assert cluster.network.bytes_sent == 300

    def test_transfer_to_dead_node_fails(self, cluster):
        a, b = cluster.add_nodes(2)
        b.fail()

        def proc():
            yield from cluster.network.transfer(a, b, 100)

        with pytest.raises(NodeDownError):
            run_sync(cluster.env, proc())

    def test_recovered_node_accepts_transfers(self, cluster):
        a, b = cluster.add_nodes(2)
        b.fail()
        b.recover()

        def proc():
            yield from cluster.network.transfer(a, b, 100)
            return "ok"

        assert run_sync(cluster.env, proc()) == "ok"

    def test_nic_serializes_fan_in(self, cluster):
        """Concurrent senders to one node queue on the receiver NIC."""
        senders = cluster.add_nodes(8)
        target = cluster.add_node("target")
        done = []

        def sender(src):
            yield from cluster.network.transfer(src, target, 0)
            done.append(cluster.env.now)

        for src in senders:
            cluster.env.process(sender(src))
        cluster.env.run()
        # All arrive at the same time but are processed at most
        # nic_channels at a time at the receiver.
        from collections import Counter
        channels = cluster.costs.nic_channels
        per_instant = Counter(round(t, 12) for t in done)
        assert max(per_instant.values()) <= channels
        assert len(per_instant) >= len(done) // channels


class TestService:
    def test_rpc_round_trip_value(self, cluster):
        client, server = cluster.add_nodes(2)
        svc = EchoService(cluster, server, "echo", workers=1)

        def proc():
            result = yield from svc.request(client, "echo", "hello")
            return result

        assert run_sync(cluster.env, proc()) == "hello"
        assert svc.requests_served == 1
        assert svc.requests_by_method == {"echo": 1}

    def test_rpc_unknown_method(self, cluster):
        client, server = cluster.add_nodes(2)
        svc = EchoService(cluster, server, "echo")

        def proc():
            yield from svc.request(client, "nosuch")

        with pytest.raises(AttributeError):
            run_sync(cluster.env, proc())

    def test_handler_error_reaches_caller_after_response_hop(self, cluster):
        client, server = cluster.add_nodes(2)
        svc = EchoService(cluster, server, "echo")

        def proc():
            try:
                yield from svc.request(client, "boom")
            except ValueError as exc:
                return (str(exc), cluster.env.now)

        msg, t = run_sync(cluster.env, proc())
        assert msg == "handler error"
        # Error arrives after a full round trip, not instantly.
        assert t > 2 * cluster.network.params.latency

    def test_worker_pool_limits_concurrency(self, cluster):
        client, server = cluster.add_nodes(2)
        svc = EchoService(cluster, server, "echo", workers=1)
        done = []

        def proc(i):
            yield from svc.request(client, "echo", i)
            done.append(cluster.env.now)

        for i in range(4):
            cluster.env.process(proc(i))
        cluster.env.run()
        # 10us handler serialized across 4 requests: completions spread out.
        spans = [b - a for a, b in zip(done, done[1:])]
        assert all(s >= 9e-6 for s in spans)


def _frames_below(generator):
    """Length of the ``yield from`` chain hanging off ``generator``."""
    depth = 0
    while generator.gi_yieldfrom is not None:
        generator = generator.gi_yieldfrom
        depth += 1
    return depth


class TestOneFramePerHop:
    def test_one_generator_below_request_in_the_sender_hold(self, cluster):
        client, server = cluster.add_nodes(2)
        svc = EchoService(cluster, server, "echo")
        request = svc.request(client, "echo", "x")
        proc = cluster.env.process(request)
        cluster.env.run(until=cluster.network.params.msg_overhead / 2)
        # Holding the sender NIC, asleep on a bare delay: nothing to cancel.
        assert client.nic.in_use == 1 and proc.is_alive
        assert proc.waiting_on is None
        assert _frames_below(request) == 1      # transfer; 3 with use()
        cluster.env.run()
        assert proc.value == "x"

    @pytest.mark.parametrize("stage", ["nic_queue", "sender_hold", "latency",
                                       "receiver_hold", "loopback_hold"])
    def test_interrupt_releases_nics_and_closes_span(self, cluster, stage):
        a, b = cluster.add_nodes(2)
        net, p = cluster.network, cluster.network.params
        net.tracer = tracer = Tracer()
        sent = p.msg_overhead + 64 / p.bandwidth
        dst, stop_at = {
            "nic_queue": (b, sent / 2),
            "sender_hold": (b, sent / 2),
            "latency": (b, sent + p.latency / 2),
            "receiver_hold": (b, sent + p.latency + p.msg_overhead / 2),
            "loopback_hold": (a, p.local_loopback / 2),
        }[stage]
        def blocker():
            yield a.nic     # takes a slot and keeps it

        blockers = []
        if stage == "nic_queue":
            blockers = [cluster.env.process(blocker())
                        for _ in range(a.nic.capacity)]

        def sender():
            try:
                yield from net.transfer(a, dst, 64)
            except Interrupt:
                return "interrupted"

        proc = cluster.env.process(sender())
        tracer.push_context(proc, tracer.root_context())
        cluster.env.run(until=stop_at)
        assert a.nic.queue_length == (1 if stage == "nic_queue" else 0)
        cancel_wait(proc.waiting_on)
        proc.interrupt()
        cluster.env.run()
        for _ in blockers:
            a.nic.release()
        assert proc.value == "interrupted"
        assert (a.nic.in_use, b.nic.in_use) == (0, 0)
        assert (a.nic.queue_length, b.nic.queue_length) == (0, 0)
        kinds = [ev.kind for ev in tracer.events(actor="net")]
        assert kinds == ["span.start", "span.end"]

    @pytest.mark.parametrize("cut_sender, dropped", [(False, 0), (True, 1)])
    def test_cut_installed_mid_flight_drops_only_what_it_separates(
            self, cluster, cut_sender, dropped):
        """A cut dooms a message only if it separates *its* endpoints —
        the send-time verdict must be a boolean, not the live cut table."""
        a, b, c, d = cluster.add_nodes(4)
        net, p = cluster.network, cluster.network.params

        def sender():
            try:
                yield from net.transfer(a, b, 0)
                return "delivered"
            except MessageDropped:
                return "dropped"

        proc = cluster.env.process(sender())
        cluster.env.run(until=p.msg_overhead + p.latency / 2)   # on the wire
        net.partition([a], [b]) if cut_sender else net.partition([c], [d])
        cluster.env.run()
        assert proc.value == ("dropped" if dropped else "delivered")
        assert net.dropped == dropped
