"""Tests for the MDS inode/dentry LRU cache (Figs. 2/9 superlinearity)."""

from repro.dfs.beegfs import BeeGFS
from repro.sim.core import run_sync
from repro.sim.costs import CostModel
from repro.sim.network import Cluster


def make(cache_entries=4, miss_cost=100e-6):
    costs = CostModel().with_overrides(
        mds_inode_cache_entries=cache_entries,
        mds_inode_cache_miss=miss_cost)
    cluster = Cluster(costs=costs)
    fs = BeeGFS(cluster)
    node = cluster.add_node("client")
    client = fs.client(node)
    return cluster, fs, client


class TestInodeCache:
    def test_repeat_lookup_hits(self):
        cluster, fs, client = make()
        fs.mkdir_sync("/d")
        fs.namespace.create("/d/f", uid=1000, gid=1000)

        def twice():
            yield from client.getattr("/d/f")
            t0 = cluster.env.now
            yield from client.getattr("/d/f")
            return cluster.env.now - t0

        warm = run_sync(cluster.env, twice())
        mds = fs.mds_servers[0]
        assert mds.inode_cache_hits > 0
        # Warm access pays no miss penalty.
        assert warm < 2 * (cluster.costs.mds_lookup_service +
                           cluster.costs.mds_read_service) + 300e-6

    def test_eviction_under_pressure(self):
        cluster, fs, client = make(cache_entries=4)
        for i in range(10):
            fs.mkdir_sync(f"/d{i}")

        def sweep():
            for i in range(10):
                yield from client.getattr(f"/d{i}")
            # Second sweep: the LRU (capacity 4) evicted the early ones.
            for i in range(10):
                yield from client.getattr(f"/d{i}")

        run_sync(cluster.env, sweep())
        mds = fs.mds_servers[0]
        assert mds.inode_cache_misses > 10  # second sweep missed too

    def test_miss_penalty_visible_in_time(self):
        def sweep_time(cache_entries):
            cluster, fs, client = make(cache_entries=cache_entries,
                                       miss_cost=500e-6)
            for i in range(8):
                fs.mkdir_sync(f"/d{i}")

            def sweep():
                for _ in range(3):
                    for i in range(8):
                        yield from client.getattr(f"/d{i}")
                return cluster.env.now

            return run_sync(cluster.env, sweep())

        assert sweep_time(cache_entries=2) > sweep_time(cache_entries=100)

    def test_cache_disabled(self):
        cluster, fs, client = make(cache_entries=0)
        fs.mkdir_sync("/d")

        def go():
            yield from client.getattr("/d")

        run_sync(cluster.env, go())
        mds = fs.mds_servers[0]
        assert mds.inode_cache_hits == 0
        assert mds.inode_cache_misses == 0
