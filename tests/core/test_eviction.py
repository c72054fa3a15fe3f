"""Tests for cache space management (§III.F)."""

import pytest

from repro.core.config import PaconConfig
from repro.core.eviction import HIGH_WATERMARK
from tests.core.conftest import make_world


def small_cache_world(capacity=40_000, n_nodes=2):
    config = PaconConfig(workspace="/app", cache_capacity_bytes=capacity)
    return make_world(config=config, n_nodes=n_nodes)


class TestPressureDetection:
    def test_no_pressure_when_empty(self, world):
        ev = world.deployment.evictor(world.region)
        assert not ev.under_pressure()

    def test_pressure_after_fill(self):
        world = small_cache_world(capacity=6_000)
        ev = world.deployment.evictor(world.region)
        world.run(world.client.mkdir("/app/d0"))
        i = 0
        while not ev.under_pressure() and i < 200:
            world.run(world.client.create(f"/app/d0/f{i}"))
            i += 1
        assert ev.under_pressure()


class TestEvictOnce:
    def test_evicts_committed_entries(self):
        world = small_cache_world()
        for d in range(4):
            world.run(world.client.mkdir(f"/app/d{d}"))
            for i in range(5):
                world.run(world.client.create(f"/app/d{d}/f{i}"))
        world.quiesce()  # everything committed -> all evictable
        ev = world.deployment.evictor(world.region)
        before = world.region.cache.total_items()
        removed = world.run(ev.evict_once())
        assert removed == 6  # one top-level dir + its 5 files
        assert world.region.cache.total_items() == before - 6

    def test_round_robin_rotates_victims(self):
        world = small_cache_world()
        for d in range(3):
            world.run(world.client.mkdir(f"/app/d{d}"))
        world.quiesce()
        ev = world.deployment.evictor(world.region)
        world.run(ev.evict_once())
        world.run(ev.evict_once())
        survivors = [d for d in range(3)
                     if world.region.cache.peek(f"/app/d{d}") is not None]
        assert len(survivors) == 1  # two distinct victims were chosen

    def test_uncommitted_entries_are_safe(self):
        world = small_cache_world()
        # Publish creates but freeze commits by not advancing: we instead
        # check right after submitting, before quiescing.
        for i in range(5):
            world.run(world.client.create(f"/app/f{i}"))
        ev = world.deployment.evictor(world.region)
        # Evict while at least some entries are uncommitted.
        world.run(ev.evict_once())
        # Nothing uncommitted may have been dropped: every file is still
        # reachable (either cached or already on the DFS).
        world.quiesce()
        for i in range(5):
            assert world.dfs.namespace.exists(f"/app/f{i}")

    def test_evicted_metadata_still_readable_from_dfs(self):
        world = small_cache_world()
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.create("/app/d/f"))
        world.quiesce()
        ev = world.deployment.evictor(world.region)
        while world.run(ev.evict_once()):
            pass
        assert world.region.cache.peek("/app/d/f") is None
        # getattr falls back to the DFS (backup copy) and re-caches.
        inode = world.run(world.client.getattr("/app/d/f"))
        assert inode.is_file
        assert world.region.cache.peek("/app/d/f") is not None

    def test_inline_data_flushed_before_eviction(self):
        world = small_cache_world()
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"x" * 600))
        world.quiesce()
        ev = world.deployment.evictor(world.region)
        while world.run(ev.evict_once()):
            pass
        assert ev.flushes >= 1
        # The DFS now holds the data (size recorded there).
        assert world.dfs.namespace.getattr("/app/f").size == 600

    def test_empty_region_evicts_nothing(self, world):
        ev = world.deployment.evictor(world.region)
        assert world.run(ev.evict_once()) == 0


class TestBackgroundLoop:
    def test_loop_relieves_pressure(self):
        world = small_cache_world(capacity=9_000)
        ev = world.deployment.evictor(world.region)
        world.cluster.env.process(ev.run(poll_interval=2e-3))
        for d in range(6):
            world.run(world.client.mkdir(f"/app/d{d}"))
            for i in range(6):
                world.run(world.client.create(f"/app/d{d}/f{i}"))
            world.quiesce()
        # Let the evictor run a few polls.
        world.cluster.env.run(until=world.cluster.env.now + 50e-3)
        assert all(s.kv.usage_fraction() < HIGH_WATERMARK
                   for s in world.region.shards)
        assert ev.evictions >= 1
