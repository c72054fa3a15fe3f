"""Tests for elastic region growth (§III.A Benefit 2)."""

import pytest


class TestRegionGrowth:
    def grow(self, world):
        new_node = world.cluster.add_node("newcomer")
        world.deployment.grow_region(world.region, new_node)
        return new_node

    def test_grow_adds_shard_queue_and_commit(self, world):
        n_before = len(world.region.nodes)
        new_node = self.grow(world)
        assert len(world.region.nodes) == n_before + 1
        assert len(world.region.shards) == n_before + 1
        assert len(world.region.queues) == n_before + 1
        assert any(cp.node is new_node
                   for cp in world.region.commit_processes)

    def test_existing_data_still_reachable_after_growth(self, world):
        paths = []
        for i in range(40):
            path = f"/app/f{i}"
            world.run(world.client.create(path))
            paths.append(path)
        self.grow(world)
        # Keys that moved to the new (empty) shard refill from the DFS.
        for path in paths:
            inode = world.run(world.client.getattr(path))
            assert inode.is_file, path

    def test_new_node_serves_clients(self, world):
        new_node = self.grow(world)
        newcomer = world.deployment.client(world.region, new_node)
        world.run(newcomer.create("/app/from-newcomer"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/from-newcomer")

    def test_barriers_work_after_growth(self, world):
        """The grown region's barrier spans all N+1 commit processes."""
        world.run(world.client.create("/app/before"))
        world.run(world.client.readdir("/app"))  # epoch 0 with N nodes
        new_node = self.grow(world)
        newcomer = world.deployment.client(world.region, new_node)
        world.run(newcomer.create("/app/after"))
        names = world.run(world.client.readdir("/app"))  # epoch 1, N+1
        assert names == ["after", "before"]
        for cp in world.region.commit_processes:
            assert cp.current_epoch == 2

    def test_growth_moves_minimal_keys(self, world):
        cache = world.region.cache
        keys = [f"/app/k{i}" for i in range(300)]
        before = {k: cache.shard_for(k) for k in keys}
        self.grow(world)
        moved = sum(1 for k in keys if cache.shard_for(k) is not before[k])
        # Consistent hashing: roughly 1/(N+1) of keys move, not most.
        assert 0 < moved < len(keys) * 0.5

    def test_duplicate_node_rejected(self, world):
        with pytest.raises(ValueError):
            world.region.add_node(world.nodes[0])

    def test_small_files_survive_growth(self, world):
        """Migration carries inline data: the primary copy (including
        small-file bytes that exist nowhere else) must survive the ring
        membership change for every key, moved or not."""
        payloads = {}
        for i in range(30):
            path = f"/app/f{i}"
            world.run(world.client.create(path))
            data = bytes([65 + i % 26]) * 16
            world.run(world.client.write(path, 0, data=data))
            payloads[path] = data
        self.grow(world)
        for path, data in payloads.items():
            got = world.run(world.client.read(path, 0, 16))
            assert got == data, path

    def test_growth_reports_migrated_records(self, world):
        for i in range(100):
            world.run(world.client.create(f"/app/f{i}"))
        new_node = world.cluster.add_node("newcomer")
        moved = world.deployment.grow_region(world.region, new_node)
        assert 0 < moved < 100
        # Moved records actually live on the new shard now.
        new_shard = world.region.shards[-1]
        assert len(new_shard.kv) == moved
