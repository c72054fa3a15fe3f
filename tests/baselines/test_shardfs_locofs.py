"""Tests for the ShardFS/LocoFS ablation baselines."""

import pytest

from repro.baselines.locofs import LocoFS
from repro.baselines.shardfs import ShardFS
from repro.dfs.errors import FileExists, FileNotFound
from repro.sim.core import run_sync
from repro.sim.network import Cluster


def make_shardfs(n=3):
    cluster = Cluster(seed=9)
    servers = [cluster.add_node(f"s{i}") for i in range(n)]
    client = cluster.add_node("client")
    return cluster, ShardFS(cluster, servers), client


def make_locofs(n_fms=3):
    cluster = Cluster(seed=9)
    dms = cluster.add_node("dms")
    fms = [cluster.add_node(f"fms{i}") for i in range(n_fms)]
    client = cluster.add_node("client")
    return cluster, LocoFS(cluster, dms, fms), client


class TestShardFS:
    def test_mkdir_replicates_everywhere(self):
        cluster, fs, client = make_shardfs()

        def scenario():
            yield from fs.mkdir(client, "/d")

        run_sync(cluster.env, scenario())
        assert all("/d" in s.dirs for s in fs.servers)

    def test_create_and_stat_single_rpc(self, rpc_counts):
        cluster, fs, client = make_shardfs()

        def scenario():
            yield from fs.mkdir(client, "/d")
            yield from fs.create(client, "/d/f")
            record = yield from fs.getattr(client, "/d/f")
            return record

        record = run_sync(cluster.env, scenario())
        assert record["ftype"] == "file"
        served = sum(rpc_counts[s]["getattr"] for s in fs.servers)
        assert served == 1

    def test_stat_depth_insensitive(self):
        def stat_time(depth):
            cluster, fs, client = make_shardfs()

            def scenario():
                path = ""
                for i in range(depth):
                    path += f"/d{i}"
                    yield from fs.mkdir(client, path)
                yield from fs.create(client, path + "/leaf")
                t0 = cluster.env.now
                yield from fs.getattr(client, path + "/leaf")
                return cluster.env.now - t0

            return run_sync(cluster.env, scenario())

        assert stat_time(6) < stat_time(3) * 1.2

    def test_mkdir_cost_scales_with_servers(self):
        def mkdir_time(n):
            cluster, fs, client = make_shardfs(n)

            def scenario():
                t0 = cluster.env.now
                yield from fs.mkdir(client, "/d")
                return cluster.env.now - t0

            return run_sync(cluster.env, scenario())

        assert mkdir_time(6) > mkdir_time(1) * 3

    def test_create_missing_parent(self):
        cluster, fs, client = make_shardfs()

        def scenario():
            yield from fs.create(client, "/no/f")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, scenario())


class TestLocoFS:
    def test_create_and_stat(self):
        cluster, fs, client = make_locofs()

        def scenario():
            yield from fs.mkdir(client, "/d")
            yield from fs.create(client, "/d/f")
            record = yield from fs.getattr(client, "/d/f")
            return record

        assert run_sync(cluster.env, scenario())["ftype"] == "file"

    def test_all_dir_ops_hit_single_dms(self, rpc_counts):
        cluster, fs, client = make_locofs()

        def scenario():
            for i in range(6):
                yield from fs.mkdir(client, f"/d{i}")

        run_sync(cluster.env, scenario())
        assert rpc_counts[fs.dms]["mkdir"] == 6

    def test_files_spread_over_fms(self):
        cluster, fs, client = make_locofs(n_fms=3)

        def scenario():
            yield from fs.mkdir(client, "/d")
            for i in range(30):
                yield from fs.create(client, f"/d/f{i}")

        run_sync(cluster.env, scenario())
        loads = [len(s.files) for s in fs.fms]
        assert sum(loads) == 30
        assert all(load > 0 for load in loads)

    def test_duplicate_mkdir(self):
        cluster, fs, client = make_locofs()

        def scenario():
            yield from fs.mkdir(client, "/d")
            yield from fs.mkdir(client, "/d")

        with pytest.raises(FileExists):
            run_sync(cluster.env, scenario())

    def test_missing_path_component(self):
        cluster, fs, client = make_locofs()

        def scenario():
            yield from fs.create(client, "/ghost/f")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, scenario())

    def test_dms_is_serialization_point(self, rpc_counts):
        """Concurrent creates all funnel through the DMS path check."""
        cluster, fs, client = make_locofs(n_fms=4)

        def setup():
            yield from fs.mkdir(client, "/d")

        run_sync(cluster.env, setup())
        done = []

        def creator(i):
            yield from fs.create(client, f"/d/f{i}")
            done.append(i)

        for i in range(8):
            cluster.env.process(creator(i))
        cluster.env.run()
        assert len(done) == 8
        assert rpc_counts[fs.dms]["check_path"] == 8
