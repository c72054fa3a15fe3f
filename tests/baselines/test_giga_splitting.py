"""Tests for GIGA+-style directory splitting in the IndexFS baseline."""

import pytest

from repro.baselines import indexfs
from repro.baselines.indexfs import IndexFS
from repro.dfs.errors import FileNotFound
from repro.sim.core import run_sync
from repro.sim.network import Cluster


@pytest.fixture(autouse=True)
def small_splits(monkeypatch):
    """Split past 10 entries per partition, so a few dozen creates do."""
    monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 10)


def make(n_nodes=4):
    cluster = Cluster(seed=5)
    nodes = [cluster.add_node(f"n{i}") for i in range(n_nodes)]
    fs = IndexFS(cluster, nodes)
    return cluster, fs, fs.client(nodes[0])


class TestSplitting:
    def test_directory_splits_past_threshold(self):
        cluster, fs, client = make()

        def scenario():
            yield from client.mkdir("/d")
            for i in range(30):
                yield from client.create(f"/d/f{i}")

        run_sync(cluster.env, scenario())
        assert fs.dir_partitions.get("/d", 1) >= 2
        assert fs.splits >= 1

    def test_partitions_capped_at_server_count(self, monkeypatch):
        monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 4)
        cluster, fs, client = make(n_nodes=2)

        def scenario():
            yield from client.mkdir("/d")
            for i in range(100):
                yield from client.create(f"/d/f{i}")

        run_sync(cluster.env, scenario())
        assert fs.dir_partitions.get("/d", 1) <= 2

    def test_split_spreads_load(self):
        cluster, fs, client = make(n_nodes=4)

        def scenario():
            yield from client.mkdir("/d")
            for i in range(200):
                yield from client.create(f"/d/f{i}")

        run_sync(cluster.env, scenario())
        holders = [s for s in fs.servers if s.lsm.total_live_keys() > 0]
        assert len(holders) >= 3

    def test_pre_split_entries_still_found(self):
        """GIGA+ probe chain finds entries created before a split."""
        cluster, fs, client = make()

        def scenario():
            yield from client.mkdir("/d")
            early = [f"/d/f{i}" for i in range(8)]   # before any split
            for path in early:
                yield from client.create(path)
            for i in range(8, 60):                   # force splits
                yield from client.create(f"/d/f{i}")
            found = []
            for path in early:
                inode = yield from client.getattr(path)
                found.append(inode.is_file)
            return found

        assert all(run_sync(cluster.env, scenario()))

    def test_unlink_pre_split_entry(self):
        cluster, fs, client = make()

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/early")
            for i in range(50):
                yield from client.create(f"/d/f{i}")
            yield from client.unlink("/d/early")
            yield from client.getattr("/d/early")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, scenario())

    def test_no_split_under_threshold(self, monkeypatch):
        monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 1000)
        cluster, fs, client = make()

        def scenario():
            yield from client.mkdir("/d")
            for i in range(50):
                yield from client.create(f"/d/f{i}")

        run_sync(cluster.env, scenario())
        assert fs.dir_partitions.get("/d", 1) == 1
        assert fs.splits == 0
