"""Tests for the batched commit pipeline: drain, coalescing, backpressure.

The batching contract: any ``commit_batch_size`` produces the same final
DFS namespace as the op-at-a-time seed pipeline (§III.E convergence is
batch-size-independent), while larger batches amortize queue pops and
share MDS round trips between same-directory operations.
"""

import pytest

from repro.bench.fig07 import batching_comparison
from repro.core.config import PaconConfig
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from tests.core.conftest import make_paused_world, make_world


class TestBatchedDrain:
    def test_batched_drain_commits_everything(self):
        world = make_world(config=PaconConfig(workspace="/app",
                                              commit_batch_size=8))
        for i in range(30):
            world.run(world.client.create(f"/app/f{i}"))
        world.quiesce()
        for i in range(30):
            assert world.dfs.namespace.exists(f"/app/f{i}")
        assert sum(cp.committed
                   for cp in world.region.commit_processes) == 30

    def test_multi_message_batches_observed(self):
        config = PaconConfig(workspace="/app", commit_batch_size=16)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        hub = MetricsHub()
        hub.attach_region(region)
        for i in range(10):
            run_sync(cluster.env, client.create(f"/app/f{i}"))
        deployment.start_commit_processes(region)
        deployment.quiesce_sync(region)
        batches = hub.stats.sketch("commit.batch_size").summary()
        assert batches["count"] >= 1
        assert batches["max"] > 1
        for i in range(10):
            assert dfs.namespace.exists(f"/app/f{i}")

    def test_batch_size_one_reproduces_op_at_a_time(self):
        world = make_world(config=PaconConfig(workspace="/app",
                                              commit_batch_size=1))
        hub = MetricsHub()
        hub.attach_region(world.region)
        for i in range(5):
            world.run(world.client.create(f"/app/f{i}"))
        world.quiesce()
        # Same drain path as any other size; every drain is one message.
        assert hub.stats.sketch("commit.batch_size").summary()["max"] == 1
        assert sum(cp.committed for cp in world.region.commit_processes) == 5

    def test_barrier_inside_batch_cuts_segments(self):
        """Ops published before a barrier and after it commit in their own
        epochs even when drained together (the marker cuts the batch)."""
        world = make_world(config=PaconConfig(workspace="/app",
                                              commit_batch_size=32))
        world.run(world.client.create("/app/before"))
        names = world.run(world.client.readdir("/app"))
        assert names == ["before"]
        world.run(world.client.create("/app/after"))
        world.quiesce()
        assert world.region.barrier_epochs_completed == 1
        assert world.dfs.namespace.exists("/app/after")


class TestCoalescing:
    def test_create_rm_pair_cancels_without_mds_work(self):
        config = PaconConfig(workspace="/app", commit_batch_size=16)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        run_sync(cluster.env, client.create("/app/tmp"))
        run_sync(cluster.env, client.rm("/app/tmp"))
        deployment.start_commit_processes(region)
        deployment.quiesce_sync(region)
        assert sum(cp.coalesced for cp in region.commit_processes) == 2
        assert sum(cp.committed for cp in region.commit_processes) == 0
        assert not dfs.namespace.exists("/app/tmp")
        # The rm's cache bookkeeping still ran: no tombstone leak.
        assert region.cache.peek("/app/tmp") is None

    def test_coalescing_disabled_commits_both(self):
        config = PaconConfig(workspace="/app", commit_batch_size=16,
                             commit_coalesce=False)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        run_sync(cluster.env, client.create("/app/tmp"))
        run_sync(cluster.env, client.rm("/app/tmp"))
        deployment.start_commit_processes(region)
        deployment.quiesce_sync(region)
        assert sum(cp.coalesced for cp in region.commit_processes) == 0
        assert sum(cp.committed for cp in region.commit_processes) == 2
        assert not dfs.namespace.exists("/app/tmp")
        assert region.cache.peek("/app/tmp") is None

    def test_committed_generation_is_never_coalesced(self):
        """If the create already materialized out of band (committed flag
        set), the rm must really run — cancelling it would leave the file
        on the DFS forever."""
        config = PaconConfig(workspace="/app", commit_batch_size=16)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        run_sync(cluster.env, client.create("/app/tmp"))
        run_sync(cluster.env, client.rm("/app/tmp"))
        # Simulate out-of-band materialization (zero-cost test poke).
        record = region.cache.shard_for("/app/tmp").kv._items[
            "/app/tmp"].value
        record["committed"] = True
        deployment.start_commit_processes(region)
        deployment.quiesce_sync(region)
        assert sum(cp.coalesced for cp in region.commit_processes) == 0
        assert not dfs.namespace.exists("/app/tmp")

    def test_unrelated_ops_in_batch_survive_coalescing(self):
        config = PaconConfig(workspace="/app", commit_batch_size=16)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        run_sync(cluster.env, client.create("/app/keep"))
        run_sync(cluster.env, client.create("/app/tmp"))
        run_sync(cluster.env, client.rm("/app/tmp"))
        run_sync(cluster.env, client.mkdir("/app/dir"))
        deployment.start_commit_processes(region)
        deployment.quiesce_sync(region)
        assert dfs.namespace.exists("/app/keep")
        assert dfs.namespace.exists("/app/dir")
        assert not dfs.namespace.exists("/app/tmp")
        assert sum(cp.coalesced for cp in region.commit_processes) == 2


class TestMetricsBalance:
    @pytest.mark.parametrize("batch_size,coalesce", [(1, True), (4, True),
                                                     (16, False)])
    def test_published_equals_committed_discarded_coalesced(self, batch_size,
                                                            coalesce):
        config = PaconConfig(workspace="/app", commit_batch_size=batch_size,
                             commit_coalesce=coalesce)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        hub = MetricsHub()
        hub.attach_region(region)
        for i in range(6):
            run_sync(cluster.env, client.create(f"/app/f{i}"))
        run_sync(cluster.env, client.rm("/app/f0"))
        run_sync(cluster.env, client.rm("/app/f1"))
        run_sync(cluster.env, client.create("/app/f0"))
        deployment.start_commit_processes(region)
        deployment.quiesce_sync(region)
        counters = hub.stats.counters()
        published = counters.get("commit.published", 0)
        resolved = (counters.get("commit.committed", 0)
                    + counters.get("commit.discarded", 0)
                    + counters.get("commit.coalesced", 0))
        assert published == 9
        assert published == resolved


class TestBackpressure:
    def test_bounded_queue_stalls_publisher_visibly(self):
        config = PaconConfig(workspace="/app", commit_batch_size=4,
                             commit_queue_capacity=4)
        world = make_world(config=config, n_nodes=2)
        hub = MetricsHub()
        hub.attach_region(world.region)

        def burst():
            for i in range(40):
                yield from world.client.create(f"/app/f{i}")

        world.run(burst())
        world.quiesce()
        counters = hub.stats.counters()
        assert counters.get("commit.publish_stalls", 0) >= 1
        stalls = hub.stats.sketch("commit.publish_stall").summary()
        assert stalls["count"] >= 1 and stalls["max"] > 0
        for i in range(40):
            assert world.dfs.namespace.exists(f"/app/f{i}")
        depth_cap = config.commit_queue_capacity + 1  # one racing publish
        for queue in world.region.queues.queues():
            assert queue.peak_depth <= depth_cap

    def test_unbounded_default_never_stalls(self):
        world = make_world(config=PaconConfig(workspace="/app"), n_nodes=2)
        hub = MetricsHub()
        hub.attach_region(world.region)

        def burst():
            for i in range(20):
                yield from world.client.create(f"/app/f{i}")

        world.run(burst())
        world.quiesce()
        assert hub.stats.counters().get("commit.publish_stalls", 0) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PaconConfig(workspace="/app", commit_queue_capacity=0)
        with pytest.raises(ValueError):
            PaconConfig(workspace="/app", commit_batch_size=0)


class TestBatchingThroughput:
    def test_batch16_beats_batch1_with_identical_namespace(self):
        out = batching_comparison("smoke", batch_sizes=(1, 16))
        assert out[16]["namespace_digest"] == out[1]["namespace_digest"]
        assert out[16]["committed_ops"] == out[1]["committed_ops"]
        assert (out[16]["committed_ops_per_sec"]
                > out[1]["committed_ops_per_sec"])
