"""Tests for the batched commit pipeline: drain and coalescing.

The batching contract: any ``commit_batch_size`` produces the same final
DFS namespace as the op-at-a-time seed pipeline (§III.E convergence is
batch-size-independent), while larger batches amortize queue pops and
share MDS round trips between same-directory operations.
"""

import hashlib
from typing import Dict, Sequence

import pytest

from repro.bench.fig07 import PHASES, SCALES
from repro.bench.systems import DEFAULT_SEED, make_testbed
from repro.core.config import PaconConfig
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.workloads.mdtest import MdtestConfig, run_mdtest
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
        # Coalescing needs two ops in one drained segment: size 1 has none.
        config = PaconConfig(workspace="/app", commit_batch_size=1)
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
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_published_equals_committed_discarded_coalesced(self, batch_size):
        config = PaconConfig(workspace="/app", commit_batch_size=batch_size)
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


def batching_comparison(scale: str = "smoke",
                        batch_sizes: Sequence[int] = (1, 16),
                        seed: int = DEFAULT_SEED,
                        ) -> Dict[int, Dict[str, object]]:
    """Pacon committed-op throughput as a function of commit batch size.

    Runs the fig. 7 workload once per batch size on identically seeded
    clusters and measures the commit pipeline end to end: total committed
    operations over the simulated time to fully drain (quiesce).  §III.E
    convergence demands the final DFS namespace be identical regardless of
    batch size, so each run also returns a digest of the namespace
    structure — callers should assert the digests match.
    """
    params = SCALES[scale]
    nodes = params["node_counts"][0]
    out: Dict[int, Dict[str, object]] = {}
    for batch_size in batch_sizes:
        bed = make_testbed("pacon", n_apps=1, nodes_per_app=nodes,
                           clients_per_node=params["cpn"],
                           commit_batch_size=batch_size, seed=seed)
        config = MdtestConfig(workdir="/app",
                              items_per_client=params["items"],
                              phases=PHASES)
        run_mdtest(bed.env, bed.clients, config)
        bed.quiesce()
        region = bed.app.region
        elapsed = bed.env.now
        out[batch_size] = {
            "committed_ops": region.ops_committed,
            "elapsed": elapsed,
            "committed_ops_per_sec": region.ops_committed / elapsed,
            "namespace_digest": _namespace_digest(bed.dfs),
        }
    return out


def _namespace_digest(dfs) -> str:
    """Digest of the DFS namespace *structure* (paths, kinds, modes).

    Inode numbers and timestamps depend on commit interleaving and are
    excluded on purpose: §III.E promises the same *namespace*, not the
    same commit schedule.
    """
    entries = sorted(
        (path, "dir" if inode.is_dir else "file", inode.mode, inode.size)
        for path, inode in dfs.namespace.walk("/"))
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
    return digest.hexdigest()


class TestBatchingThroughput:
    def test_batch16_beats_batch1_with_identical_namespace(self):
        out = batching_comparison("smoke", batch_sizes=(1, 16))
        assert out[16]["namespace_digest"] == out[1]["namespace_digest"]
        assert out[16]["committed_ops"] == out[1]["committed_ops"]
        assert (out[16]["committed_ops_per_sec"]
                > out[1]["committed_ops_per_sec"])
