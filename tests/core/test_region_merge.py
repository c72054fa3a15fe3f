"""Tests for consistent regions, isolation, merging, and the manager."""

import pytest

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.core.region import ReadOnlyRegion
from repro.dfs.beegfs import BeeGFS
from repro.dfs.errors import FileNotFound
from repro.sim.core import run_sync
from repro.sim.network import Cluster
from tests.core.conftest import make_two_region_world


class TestRegionBasics:
    def test_needs_nodes(self):
        cluster = Cluster()
        dfs = BeeGFS(cluster)
        with pytest.raises(ValueError):
            from repro.core.region import ConsistentRegion
            ConsistentRegion(cluster, dfs, PaconConfig(), nodes=[])

    def test_covers(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        assert ra.covers("/appA/x/y")
        assert ra.covers("/appA")
        assert not ra.covers("/appB/x")
        assert not ra.covers("/appAA")

    def test_register_client_foreign_node_rejected(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        with pytest.raises(ValueError):
            ra.register_client(rb.nodes[0])

    def test_client_counts(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        assert ra.total_clients() == 1
        dep.client(ra, ra.nodes[1])
        assert ra.total_clients() == 2


class TestRegionIsolation:
    def test_caches_disjoint(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        run_sync(cluster.env, ca.create("/appA/f"))
        run_sync(cluster.env, cb.create("/appB/g"))
        assert ra.cache.peek("/appA/f") is not None
        assert ra.cache.peek("/appB/g") is None
        assert rb.cache.peek("/appA/f") is None

    def test_queues_disjoint(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        run_sync(cluster.env, ca.create("/appA/f"))
        assert rb.queues.total_backlog() == 0

    def test_barriers_do_not_cross_regions(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        run_sync(cluster.env, ca.create("/appA/f"))
        run_sync(cluster.env, cb.readdir("/appB"))
        # B's barrier must not have flushed A's queue.
        assert rb.barrier_epochs_completed == 1
        assert ra.barrier_epochs_completed == 0

    def test_cross_region_access_without_merge_redirects_to_dfs(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        run_sync(cluster.env, cb.create("/appB/g"))
        # A's client reads B's file before B's commit lands: weak
        # consistency — the DFS does not have it yet.
        with pytest.raises(FileNotFound):
            run_sync(cluster.env, ca.getattr("/appB/g"))
        dep.quiesce_sync(rb)
        inode = run_sync(cluster.env, ca.getattr("/appB/g"))
        assert inode.is_file
        assert ca.redirects >= 1


class TestMerge:
    def test_merged_read_is_strongly_consistent(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        ra.merge(rb)
        run_sync(cluster.env, cb.create("/appB/shared"))
        # No quiesce: A reads B's cache directly.
        inode = run_sync(cluster.env, ca.getattr("/appB/shared"))
        assert inode.is_file

    def test_merge_is_mutual_by_default(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        ra.merge(rb)
        run_sync(cluster.env, ca.create("/appA/mine"))
        inode = run_sync(cluster.env, cb.getattr("/appA/mine"))
        assert inode.is_file

    def test_one_way_merge(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        ra.merge(rb, mutual=False)
        assert rb.covering_region("/appA/x") is None
        assert ra.covering_region("/appB/x") is rb

    def test_merged_region_is_read_only(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        ra.merge(rb)
        with pytest.raises(ReadOnlyRegion):
            run_sync(cluster.env, ca.create("/appB/intruder"))
        with pytest.raises(ReadOnlyRegion):
            run_sync(cluster.env, ca.rm("/appB/x"))
        with pytest.raises(ReadOnlyRegion):
            run_sync(cluster.env, ca.rmdir("/appB/d"))

    def test_merge_self_rejected(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        with pytest.raises(ValueError):
            ra.merge(ra)

    def test_merged_readdir_barriers_other_region(self):
        cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
        ra.merge(rb)
        run_sync(cluster.env, cb.create("/appB/g"))
        names = run_sync(cluster.env, ca.readdir("/appB"))
        assert "g" in names
        assert rb.barrier_epochs_completed == 1


class TestRegionManagerOverlap:
    def test_nested_workspace_joins_outer_region(self):
        cluster = Cluster()
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node(f"n{i}") for i in range(2)]
        dep = PaconDeployment(cluster, dfs)
        outer = dep.create_region(PaconConfig(workspace="/A"), nodes)
        inner = dep.create_region(PaconConfig(workspace="/A/B"), nodes)
        assert inner is outer  # §III.B case 3

    def test_outer_after_inner_rejected(self):
        cluster = Cluster()
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node("n0")]
        dep = PaconDeployment(cluster, dfs)
        dep.create_region(PaconConfig(workspace="/A/B"), nodes)
        with pytest.raises(ValueError):
            dep.create_region(PaconConfig(workspace="/A"), nodes)

    def test_merge_overlapping_rejected(self):
        cluster = Cluster()
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node("n0")]
        dep = PaconDeployment(cluster, dfs)
        from repro.core.region import ConsistentRegion
        ra = ConsistentRegion(cluster, dfs, PaconConfig(workspace="/A"),
                              nodes)
        rb = ConsistentRegion(cluster, dfs, PaconConfig(workspace="/A/B"),
                              nodes)
        with pytest.raises(ValueError):
            ra.merge(rb)
