"""Unit tests for the cluster/network model and Service RPC plumbing."""

import pytest

from repro.sim.core import run_sync
from repro.sim.costs import CostModel
from repro.sim.network import Cluster, NodeDownError, Service


@pytest.fixture
def cluster():
    return Cluster()


class EchoService(Service):
    def handle_echo(self, value):
        yield self.env.timeout(10e-6)
        return value

    def handle_boom(self):
        yield self.env.timeout(1e-6)
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
        cluster.run()
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
        cluster.run()
        # 10us handler serialized across 4 requests: completions spread out.
        spans = [b - a for a, b in zip(done, done[1:])]
        assert all(s >= 9e-6 for s in spans)
