"""Tests for the IndexFS-equivalent baseline."""

import pytest

from repro.baselines.indexfs import IndexFS
from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.sim.core import run_sync
from repro.sim.costs import CostModel
from repro.sim.network import Cluster


def make_indexfs(n_nodes=4, lease_ttl=2e-3):
    cluster = Cluster(seed=5)
    nodes = [cluster.add_node(f"n{i}") for i in range(n_nodes)]
    fs = IndexFS(cluster, nodes, lease_ttl=lease_ttl)
    client = fs.client(nodes[0])
    return cluster, fs, nodes, client


class TestBasicOps:
    def test_mkdir_create_getattr(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/f")
            inode = yield from client.getattr("/d/f")
            return inode

        inode = run_sync(cluster.env, scenario())
        assert inode.is_file
        assert fs.total_entries() == 2

    def test_create_missing_parent(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.create("/no/f")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, scenario())

    def test_duplicate_create(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/f")
            yield from client.create("/d/f")

        with pytest.raises(FileExists):
            run_sync(cluster.env, scenario())

    def test_unlink(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/f")
            yield from client.unlink("/d/f")
            return (yield from client.exists("/d/f"))

        assert run_sync(cluster.env, scenario()) is False

    def test_unlink_dir_rejected(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            yield from client.unlink("/d")

        with pytest.raises(IsADirectory):
            run_sync(cluster.env, scenario())

    def test_readdir(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            for name in ["b", "a", "c"]:
                yield from client.create(f"/d/{name}")
            yield from client.mkdir("/d/sub")
            yield from client.create("/d/sub/nested")
            return (yield from client.readdir("/d"))

        assert run_sync(cluster.env, scenario()) == ["a", "b", "c", "sub"]

    def test_rmdir_recursive_across_partitions(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            yield from client.mkdir("/d/sub")
            for i in range(5):
                yield from client.create(f"/d/f{i}")
                yield from client.create(f"/d/sub/g{i}")
            removed = yield from client.rmdir("/d")
            return removed

        assert run_sync(cluster.env, scenario()) == 12
        assert fs.total_entries() == 0

    def test_permission_checks(self):
        cluster, fs, nodes, client = make_indexfs()
        other = fs.client(nodes[1], uid=2000, gid=2000)

        def scenario():
            yield from client.mkdir("/private", mode=0o700)
            yield from other.create("/private/f")

        with pytest.raises(PermissionDenied):
            run_sync(cluster.env, scenario())


class TestPartitioning:
    def test_metadata_spreads_over_servers(self):
        cluster, fs, nodes, client = make_indexfs(n_nodes=4)

        def scenario():
            for i in range(12):
                yield from client.mkdir(f"/d{i}")
                for j in range(4):
                    yield from client.create(f"/d{i}/f{j}")

        run_sync(cluster.env, scenario())
        loads = [s.lsm.total_live_keys() for s in fs.servers]
        assert sum(loads) == 60
        assert sum(1 for x in loads if x > 0) >= 3

    def test_same_dir_entries_colocate(self):
        cluster, fs, nodes, client = make_indexfs(n_nodes=4)
        owner = fs.server_for("/d/f0")
        for j in range(10):
            assert fs.server_for(f"/d/f{j}") is owner

    def test_placement_deterministic(self):
        _, fs1, _, _ = make_indexfs()
        _, fs2, _, _ = make_indexfs()
        for i in range(20):
            assert (fs1.server_for(f"/a/b{i}").name
                    == fs2.server_for(f"/a/b{i}").name)


class TestLeases:
    def test_lease_hit_avoids_rpc(self):
        cluster, fs, nodes, client = make_indexfs(lease_ttl=10.0)

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/f1")
            before = client.lease_renewals
            yield from client.create("/d/f2")  # /d lease still warm
            return client.lease_renewals - before

        assert run_sync(cluster.env, scenario()) == 0

    def test_lease_expiry_forces_renewal(self):
        cluster, fs, nodes, client = make_indexfs(lease_ttl=1e-6)

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/f1")
            before = client.lease_renewals
            yield from client.create("/d/f2")
            return client.lease_renewals - before

        assert run_sync(cluster.env, scenario()) == 1

    def test_deeper_paths_renew_more(self):
        cluster, fs, nodes, client = make_indexfs(lease_ttl=1e-6)

        def scenario():
            yield from client.mkdir("/a")
            yield from client.mkdir("/a/b")
            yield from client.mkdir("/a/b/c")
            yield from client.create("/a/b/c/f")
            before = client.lease_renewals
            yield from client.getattr("/a/b/c/f")
            return client.lease_renewals - before

        assert run_sync(cluster.env, scenario()) == 3


class TestBulkInsertion:
    def test_bulk_buffers_then_flushes(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            client.bulk_mode = True
            client.bulk_batch_size = 1000
            for i in range(50):
                yield from client.create(f"/d/f{i}")
            buffered = len(client._bulk_buffer)
            flushed = yield from client.flush_bulk()
            return buffered, flushed

        buffered, flushed = run_sync(cluster.env, scenario())
        assert buffered == 50
        assert flushed == 50
        assert fs.total_entries() == 51

    def test_bulk_auto_flush_at_batch_size(self):
        cluster, fs, nodes, client = make_indexfs()

        def scenario():
            yield from client.mkdir("/d")
            client.bulk_mode = True
            client.bulk_batch_size = 10
            for i in range(25):
                yield from client.create(f"/d/f{i}")
            yield from client.flush_bulk()

        run_sync(cluster.env, scenario())
        assert fs.total_entries() == 26

    def test_bulk_insert_is_cheaper_per_op(self):
        def run_creates(bulk):
            cluster, fs, nodes, client = make_indexfs()

            def scenario():
                yield from client.mkdir("/d")
                t0 = cluster.env.now
                client.bulk_mode = bulk
                for i in range(200):
                    yield from client.create(f"/d/f{i}")
                yield from client.flush_bulk()
                return cluster.env.now - t0

            return run_sync(cluster.env, scenario())

        assert run_creates(bulk=True) < run_creates(bulk=False) / 3


class TestLSMCostCoupling:
    def test_flushed_server_reads_cost_more(self):
        """After flushes, reads probe SSTables — visibly slower."""
        cluster, fs, nodes, client = make_indexfs(n_nodes=1)
        fs.servers[0].lsm.memtable_limit = 8

        def build():
            yield from client.mkdir("/d")
            for i in range(64):
                yield from client.create(f"/d/f{i:03d}")

        run_sync(cluster.env, build())
        assert fs.servers[0].lsm.l0_tables + \
            (1 if fs.servers[0].lsm.l1_entries else 0) > 0

        def timed_stat(path):
            def proc():
                t0 = cluster.env.now
                yield from client.getattr(path)
                return cluster.env.now - t0
            return run_sync(cluster.env, proc())

        # A key still in the memtable vs one flushed to a table.
        in_table = timed_stat("/d/f000")
        lsm = fs.servers[0].lsm
        in_mem_key = next(iter(lsm._memtable)) if lsm.memtable_size else None
        if in_mem_key:
            assert in_table >= timed_stat(in_mem_key)


class TestWalAppendCost:
    """The write-ahead log is a cost, not a structure: a synced write pays
    ``lsm_wal_append`` once, a bulk batch once, a per-child rmdir delete
    never."""

    WAL = 1.0  # dwarfs every other cost, so each append shows whole

    def _op_times(self, wal_append):
        """Simulated seconds each step of one fixed script takes."""
        costs = CostModel().with_overrides(lsm_wal_append=wal_append)
        cluster = Cluster(costs=costs, seed=5)
        nodes = [cluster.add_node(f"n{i}") for i in range(4)]
        # Leases never expire, so both runs resolve paths alike.
        fs = IndexFS(cluster, nodes, lease_ttl=1e9)
        client = fs.client(nodes[0])
        bulk_paths = [f"/b{d}/f{i}" for d in range(4) for i in range(5)]
        steps = [("mkdir", lambda: client.mkdir("/d"))]
        steps += [(f"create{i}", lambda i=i: client.create(f"/d/f{i}"))
                  for i in range(5)]
        steps.append(("unlink", lambda: client.unlink("/d/f0")))
        steps.append(("rmdir", lambda: client.rmdir("/d")))
        steps += [(f"mkdir_b{d}", lambda d=d: client.mkdir(f"/b{d}"))
                  for d in range(4)]

        def bulk():
            client.bulk_mode = True
            for path in bulk_paths:
                yield from client.create(path)
            yield from client.flush_bulk()

        steps.append(("bulk", bulk))
        times = {}
        for name, step in steps:
            t0 = cluster.env.now
            run_sync(cluster.env, step())
            times[name] = cluster.env.now - t0
        batches = len({fs.server_for(p) for p in bulk_paths})
        return times, batches

    def test_each_synced_write_pays_one_append(self):
        free, batches = self._op_times(0.0)
        paid, _ = self._op_times(self.WAL)
        assert batches >= 2
        extra = {name: paid[name] - free[name] for name in free}
        expected = dict.fromkeys(extra, self.WAL)
        # rmdir: four partition children deleted unsynced, the directory's
        # own record synced once.
        expected["bulk"] = self.WAL * batches
        assert extra == pytest.approx(expected, abs=1e-9)
