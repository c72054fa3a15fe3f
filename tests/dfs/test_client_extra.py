"""Additional DFS client coverage: the rm alias, data-path edges,
service accounting."""

import pytest

from repro.dfs import BeeGFS
from repro.sim.core import run_sync
from repro.sim.network import Cluster


@pytest.fixture
def world():
    cluster = Cluster(seed=19)
    fs = BeeGFS(cluster, n_mds=1, n_data=3)
    node = cluster.add_node("client")
    return cluster, fs, fs.client(node)


class TestRenamePath:
    def test_rm_alias(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")
        fs.namespace.create("/d/f", uid=1000, gid=1000)

        def go():
            yield from client.rm("/d/f")

        run_sync(cluster.env, go())
        assert not fs.namespace.exists("/d/f")


class TestDataEdges:
    def test_zero_byte_write(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")

        def go():
            yield from client.create("/d/f")
            n = yield from client.write("/d/f", 0, 0)
            return n

        assert run_sync(cluster.env, go()) == 0

    def test_read_past_eof_returns_valid_bytes_only(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")

        def go():
            yield from client.create("/d/f")
            yield from client.write("/d/f", 0, 1000)
            got = yield from client.read("/d/f", 500, 10_000)
            return got

        assert run_sync(cluster.env, go()) == 500

    def test_write_at_offset_extends(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")

        def go():
            yield from client.create("/d/f")
            yield from client.write("/d/f", 1_000_000, 100)
            inode = yield from client.getattr("/d/f")
            return inode.size

        assert run_sync(cluster.env, go()) == 1_000_100

    def test_data_server_byte_accounting(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")

        def go():
            yield from client.create("/d/f")
            yield from client.write("/d/f", 0, 3_000_000)

        run_sync(cluster.env, go())
        assert sum(ds.bytes_written for ds in fs.data_servers) == 3_000_000


class TestServiceAccounting:
    def test_requests_by_method_breakdown(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")

        def go():
            yield from client.create("/d/a")
            yield from client.create("/d/b")
            yield from client.getattr("/d/a")
            yield from client.readdir("/d")

        run_sync(cluster.env, go())
        by = fs.mds_servers[0].requests_by_method
        assert by["create"] == 2
        assert by["getattr"] == 1
        assert by["readdir"] == 1
        # one per op that has /d as a non-final component (creates +
        # getattr); readdir("/d") resolves /d via its own RPC
        assert by["lookup"] == 3

    def test_worker_utilization_reported(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/d")

        def go():
            for i in range(10):
                yield from client.create(f"/d/f{i}")

        run_sync(cluster.env, go())
        assert 0 < fs.mds_servers[0].workers.utilization() <= 1
