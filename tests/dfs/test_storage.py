"""Unit tests for striping math and the data-server actor."""

import pytest

from repro.dfs.storage import DataServer, stripe_ranges
from repro.sim.core import run_sync
from repro.sim.network import Cluster


class TestStripeRanges:
    def test_single_chunk(self):
        assert stripe_ranges(0, 100, 512) == [(0, 0, 100)]

    def test_exact_chunk(self):
        assert stripe_ranges(0, 512, 512) == [(0, 0, 512)]

    def test_spans_chunks(self):
        assert stripe_ranges(0, 1200, 512) == [
            (0, 0, 512), (1, 0, 512), (2, 0, 176)]

    def test_offset_within_chunk(self):
        assert stripe_ranges(500, 100, 512) == [(0, 500, 12), (1, 0, 88)]

    def test_zero_length(self):
        assert stripe_ranges(64, 0, 512) == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            stripe_ranges(0, -1, 512)

    def test_sizes_sum_to_length(self):
        ranges = stripe_ranges(777, 123456, 4096)
        assert sum(size for _, _, size in ranges) == 123456


class TestDataServer:
    @pytest.fixture
    def setup(self):
        cluster = Cluster()
        server_node = cluster.add_node("ds")
        client_node = cluster.add_node("client")
        server = DataServer(cluster, server_node)
        return cluster, server, client_node

    def test_write_then_read(self, setup):
        cluster, server, client = setup

        def proc():
            yield from server.request(client, "write_chunk", 5, 0, 0, 1024)
            got = yield from server.request(client, "read_chunk", 5, 0, 0,
                                            1024)
            return got

        assert run_sync(cluster.env, proc()) == 1024
        assert server.stored_bytes(5) == 1024

    def test_read_unwritten_returns_zero(self, setup):
        cluster, server, client = setup

        def proc():
            got = yield from server.request(client, "read_chunk", 9, 0, 0,
                                            512)
            return got

        assert run_sync(cluster.env, proc()) == 0

    def test_partial_validity(self, setup):
        cluster, server, client = setup

        def proc():
            yield from server.request(client, "write_chunk", 5, 0, 0, 100)
            got = yield from server.request(client, "read_chunk", 5, 0, 0,
                                            500)
            return got

        assert run_sync(cluster.env, proc()) == 100

    def test_io_charges_disk_time(self, setup):
        cluster, server, client = setup
        size = 4 * 1024 * 1024

        def proc():
            yield from server.request(client, "write_chunk", 5, 0, 0, size)
            return cluster.env.now

        elapsed = run_sync(cluster.env, proc())
        assert elapsed >= cluster.costs.disk_seek + \
            cluster.costs.disk_transfer_time(size)

    def test_byte_counters(self, setup):
        cluster, server, client = setup

        def proc():
            yield from server.request(client, "write_chunk", 1, 0, 0, 300)
            yield from server.request(client, "read_chunk", 1, 0, 0, 300)

        run_sync(cluster.env, proc())
        assert server.bytes_written == 300
        assert server.bytes_read == 300
