"""End-to-end scenarios combining multiple subsystems.

These are the "would a downstream user's workflow survive" tests: multiple
applications, sharing, failures, eviction pressure, and mixed data +
metadata traffic in one run.
"""

import pytest

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment, PaconFS
from repro.core.failure import fail_node, recover_node
from repro.core.permissions import PermissionSpec
from repro.dfs.beegfs import BeeGFS
from repro.dfs.errors import FileNotFound
from repro.sim.core import run_sync
from repro.sim.network import Cluster


class TestProducerConsumerPipeline:
    def test_share_then_fail_then_recover(self):
        """Producer shares data with a consumer via merge; the producer
        then loses a node and recovers from checkpoint; the consumer's
        region is never disturbed."""
        cluster = Cluster(seed=101)
        dfs = BeeGFS(cluster)
        prod_nodes = [cluster.add_node(f"p{i}") for i in range(3)]
        cons_nodes = [cluster.add_node(f"c{i}") for i in range(2)]
        pacon = PaconDeployment(cluster, dfs)
        prod_region = pacon.create_region(
            PaconConfig(workspace="/prod", uid=1001, gid=1001,
                        permissions=PermissionSpec(0o755, 1001, 1001)),
            prod_nodes)
        cons_region = pacon.create_region(
            PaconConfig(workspace="/cons", uid=1002, gid=1002,
                        permissions=PermissionSpec(0o755, 1002, 1002)),
            cons_nodes)
        producer = pacon.client(prod_region, prod_nodes[0])
        consumer = pacon.client(cons_region, cons_nodes[0])
        cons_region.merge(prod_region, mutual=False)

        # Producer emits a batch; checkpoint it.
        run_sync(cluster.env, producer.mkdir("/prod/batch0"))
        for i in range(10):
            run_sync(cluster.env,
                     producer.create(f"/prod/batch0/item{i}"))
            run_sync(cluster.env,
                     producer.write(f"/prod/batch0/item{i}", 0,
                                    data=bytes([i]) * 32))
        pacon.quiesce_sync(prod_region)
        ckpt = pacon.checkpointer(prod_region)
        run_sync(cluster.env, ckpt.checkpoint())

        # Consumer reads through the merge, strongly consistent.
        data = run_sync(cluster.env,
                        consumer.read("/prod/batch0/item3", 0, 32))
        assert data == bytes([3]) * 32

        # Producer loses a node mid-batch-1.
        doomed = pacon.client(prod_region, prod_nodes[1])
        run_sync(cluster.env, doomed.mkdir("/prod/batch1"))
        fail_node(prod_region, prod_nodes[1])
        recover_node(prod_region, prod_nodes[1])
        run_sync(cluster.env, ckpt.restore())

        # Batch 0 survives for both parties; consumer region untouched.
        assert run_sync(cluster.env,
                        consumer.exists("/prod/batch0/item9"))
        run_sync(cluster.env, consumer.create("/cons/log"))
        pacon.quiesce_sync(cons_region)
        assert dfs.namespace.exists("/cons/log")

        # Producer keeps producing after recovery.
        run_sync(cluster.env, producer.mkdir("/prod/batch1"))
        run_sync(cluster.env, producer.create("/prod/batch1/item0"))
        pacon.quiesce_sync(prod_region)
        assert dfs.namespace.exists("/prod/batch1/item0")


class TestChurnUnderEvictionPressure:
    def test_create_write_read_rm_cycle_with_tiny_cache(self):
        """A tight cache forces eviction while the workload churns; no
        data or metadata may be lost."""
        cluster = Cluster(seed=77)
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node(f"n{i}") for i in range(2)]
        pacon = PaconDeployment(cluster, dfs)
        region = pacon.create_region(
            PaconConfig(workspace="/churn", cache_capacity_bytes=30_000),
            nodes)
        client = pacon.client(region, nodes[0])
        evictor = pacon.evictor(region)
        cluster.env.process(evictor.run(poll_interval=1e-3))

        alive = {}
        for round_no in range(4):
            run_sync(cluster.env, client.mkdir(f"/churn/r{round_no}"))
            for i in range(12):
                path = f"/churn/r{round_no}/f{i}"
                run_sync(cluster.env, client.create(path))
                run_sync(cluster.env,
                         client.write(path, 0, data=bytes([i]) * 64))
                alive[path] = bytes([i]) * 64
            # Remove a third of the previous round.
            if round_no:
                for i in range(0, 12, 3):
                    path = f"/churn/r{round_no - 1}/f{i}"
                    run_sync(cluster.env, client.rm(path))
                    del alive[path]
            pacon.quiesce_sync(region)
        # Let the evictor settle, then verify everything.
        cluster.env.run(until=cluster.env.now + 20e-3)
        for path, payload in alive.items():
            data = run_sync(cluster.env, client.read(path, 0, 64))
            assert data == payload, path
        removed = [p for p in
                   (f"/churn/r{r}/f{i}" for r in range(3)
                    for i in range(0, 12, 3))
                   if p not in alive]
        for path in removed:
            with pytest.raises(FileNotFound):
                run_sync(cluster.env, client.getattr(path))


class TestFacadeExtensions:
    def test_chmod_via_facade(self):
        fs = PaconFS(workspace="/app", nodes=2)
        fs.mkdir("/app/d")
        fs.create("/app/d/f")
        assert fs.exists("/app/d/f")
        fs.chmod("/app/d/f", 0o640)
        assert fs.stat("/app/d/f").mode == 0o640
        fs.close()

    def test_mixed_small_and_large_files(self):
        fs = PaconFS(workspace="/app", nodes=2)
        fs.create("/app/small")
        fs.write("/app/small", 0, data=b"tiny")
        fs.create("/app/large")
        fs.write("/app/large", 0, size=1_000_000)  # exceeds threshold
        assert fs.read("/app/small", 0, 4) == b"tiny"
        assert fs.stat("/app/large").size == 1_000_000
        fs.quiesce()
        assert fs.dfs.namespace.getattr("/app/large").size == 1_000_000
        fs.close()


class TestManyRegionsIsolationAtScale:
    def test_eight_regions_commit_independently(self):
        cluster = Cluster(seed=5)
        dfs = BeeGFS(cluster)
        pacon = PaconDeployment(cluster, dfs)
        regions = []
        clients = []
        for k in range(8):
            node = cluster.add_node(f"app{k}")
            region = pacon.create_region(
                PaconConfig(workspace=f"/a{k}", uid=2000 + k, gid=2000 + k),
                [node])
            regions.append(region)
            clients.append(pacon.client(region, node))
        # Interleave work across all regions.
        for i in range(5):
            for k, client in enumerate(clients):
                run_sync(cluster.env, client.create(f"/a{k}/f{i}"))
        for region in regions:
            pacon.quiesce_sync(region)
        for k in range(8):
            assert len(dfs.namespace.readdir(f"/a{k}")) == 5
        # Isolation: each region's queues saw only its own ops.
        for region in regions:
            assert region.ops_submitted == 5
            assert region.ops_committed == 5
