"""Tests for the memaslap- and MADbench2-equivalent workloads."""

import pytest

from repro.bench.systems import make_testbed
from repro.core.cache import CacheShard, DistributedCache
from repro.sim.network import Cluster
from repro.workloads.madbench import MadbenchConfig, run_madbench
from repro.workloads.memaslap import MemaslapConfig, run_memaslap


def make_cache_world(n=3):
    cluster = Cluster(seed=3)
    nodes = [cluster.add_node(f"c{i}") for i in range(n)]
    shards = [CacheShard(cluster, node, capacity_bytes=1 << 26,
                         name=f"s{i}") for i, node in enumerate(nodes)]
    return cluster, nodes, DistributedCache(shards)


class TestMemaslap:
    def test_inserts_items(self):
        cluster, nodes, cache = make_cache_world()
        ops = run_memaslap(cluster.env, cache, nodes[0],
                           MemaslapConfig(operations=100))
        assert ops > 0
        assert cache.total_items() == 100

    def test_throughput_scales_with_concurrency(self):
        def tput(conc):
            cluster, nodes, cache = make_cache_world()
            return run_memaslap(cluster.env, cache, nodes[0],
                                MemaslapConfig(operations=200,
                                               concurrency=conc))

        assert tput(8) > tput(1) * 2

    def test_operation_validation(self):
        cluster, nodes, cache = make_cache_world()
        with pytest.raises(ValueError):
            run_memaslap(cluster.env, cache, nodes[0],
                         MemaslapConfig(operations=0))

    def test_remainder_distribution(self):
        cluster, nodes, cache = make_cache_world()
        run_memaslap(cluster.env, cache, nodes[0],
                     MemaslapConfig(operations=103, concurrency=4))
        assert cache.total_items() == 103


class TestMadbench:
    @pytest.fixture
    def beds(self):
        return {
            system: make_testbed(system, n_apps=1, nodes_per_app=2,
                                 clients_per_node=2,
                                 workdir_base="/madbench")
            for system in ("beegfs", "pacon")
        }

    def test_creates_one_file_per_process(self, beds):
        bed = beds["pacon"]
        config = MadbenchConfig(file_size=256 * 1024, iterations=1)
        run_madbench(bed.env, bed.clients, config)
        bed.quiesce()
        assert len(bed.dfs.namespace.readdir("/madbench")) == \
            len(bed.clients)

    def test_breakdown_sums_to_busy_time(self, beds):
        bed = beds["beegfs"]
        config = MadbenchConfig(file_size=256 * 1024, iterations=2)
        result = run_madbench(bed.env, bed.clients, config)
        shares = result.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert result.total_time > 0

    def test_file_size_written_through(self, beds):
        bed = beds["pacon"]
        size = 512 * 1024
        config = MadbenchConfig(file_size=size, iterations=1)
        run_madbench(bed.env, bed.clients, config)
        bed.quiesce()
        for rank in range(len(bed.clients)):
            inode = bed.dfs.namespace.getattr(f"/madbench/data.{rank}")
            assert inode.size == size

    def test_compute_counts_as_other(self, beds):
        bed = beds["beegfs"]
        config = MadbenchConfig(file_size=128 * 1024, iterations=3,
                                compute_time=5e-3)
        result = run_madbench(bed.env, bed.clients, config)
        assert result.other_time >= 3 * 5e-3 * len(bed.clients)

    def test_integer_compute_time_is_accepted(self, beds):
        bed = beds["beegfs"]
        config = MadbenchConfig(file_size=128 * 1024, iterations=1,
                                compute_time=1)
        result = run_madbench(bed.env, bed.clients, config)
        assert result.other_time >= 1.0 * len(bed.clients)

    def test_pacon_total_close_to_beegfs(self, beds):
        config = MadbenchConfig(file_size=1024 * 1024, iterations=2)
        totals = {}
        for system, bed in beds.items():
            totals[system] = run_madbench(bed.env, bed.clients,
                                          config).total_time
        assert totals["pacon"] < totals["beegfs"] * 1.2

    def test_needs_clients(self, beds):
        with pytest.raises(ValueError):
            run_madbench(beds["pacon"].env, [], MadbenchConfig())
