"""Tests for the client-side parent-directory memo (hot-path optimization)."""

import pytest

from repro.dfs.errors import FileNotFound


class TestParentMemo:
    def test_memo_saves_cache_rpcs(self, world):
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.create("/app/d/f1"))
        hits_before = world.client.cache_hits + world.client.cache_misses
        world.run(world.client.create("/app/d/f2"))
        # Second create under the same parent does no parent-check KV get.
        assert world.client.cache_hits + world.client.cache_misses == \
            hits_before

    def test_memo_populated_by_own_mkdir(self, world):
        world.run(world.client.mkdir("/app/d"))
        assert "/app/d" in world.client._parent_memo

    def test_memo_invalidated_by_rmdir(self, world):
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.mkdir("/app/d/sub"))
        world.run(world.client.rmdir("/app/d"))
        assert "/app/d" not in world.client._parent_memo
        assert "/app/d/sub" not in world.client._parent_memo
        with pytest.raises(FileNotFound):
            world.run(world.client.create("/app/d/f"))

    def test_memo_is_per_client(self, world):
        other = world.new_client(1)
        world.run(world.client.mkdir("/app/d"))
        assert "/app/d" not in other._parent_memo
        # The other client verifies via the shared cache and then memoizes.
        world.run(other.create("/app/d/f"))
        assert "/app/d" in other._parent_memo

    def test_stale_memo_defers_to_commit_machinery(self, world):
        """A memo made stale by another client's rmdir must not corrupt
        anything: the create lands in the cache, and the commit layer
        discards or resolves it — the DFS never ends up inconsistent."""
        creator = world.new_client(1)
        world.run(world.client.mkdir("/app/d"))
        world.run(creator.create("/app/d/seed"))  # memoizes /app/d
        world.run(world.client.rmdir("/app/d"))
        # creator's memo is stale; its create may succeed locally.
        try:
            world.run(creator.create("/app/d/orphan"))
        except FileNotFound:
            pass  # also acceptable: the cache miss detected removal
        world.quiesce()
        assert not world.dfs.namespace.exists("/app/d/orphan")
