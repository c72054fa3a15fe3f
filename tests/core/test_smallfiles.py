"""Tests for small-file inlining and the large-file path (§III.D.2)."""

import pytest

from repro.core.config import PaconConfig
from repro.dfs.errors import FileNotFound, IsADirectory
from tests.core.conftest import make_world


class TestSmallFiles:
    def test_write_read_inline(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"hello"))
        assert world.run(world.client.read("/app/f", 0, 5)) == b"hello"

    def test_partial_overwrite(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"aaaaaa"))
        world.run(world.client.write("/app/f", 2, data=b"XX"))
        assert world.run(world.client.read("/app/f", 0, 6)) == b"aaXXaa"

    def test_sparse_write_zero_fills(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 4, data=b"zz"))
        assert world.run(world.client.read("/app/f", 0, 6)) == b"\x00" * 4 + b"zz"

    def test_size_tracked(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"x" * 321))
        assert world.run(world.client.getattr("/app/f")).size == 321

    def test_write_to_directory_rejected(self, world):
        world.run(world.client.mkdir("/app/d"))
        with pytest.raises(IsADirectory):
            world.run(world.client.write("/app/d", 0, data=b"x"))

    def test_write_to_deleted_rejected(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        with pytest.raises(FileNotFound):
            world.run(world.client.write("/app/f", 0, data=b"x"))

    def test_concurrent_inline_writes_cas(self, world):
        """§III.D.3: CAS retries make concurrent inline updates lossless."""
        world.run(world.client.create("/app/f"))
        clients = [world.new_client(i) for i in range(4)]

        def writer(cl, i):
            yield from cl.write("/app/f", i * 10, data=bytes([65 + i]) * 10)

        for i, cl in enumerate(clients):
            world.cluster.env.process(writer(cl, i))
        world.cluster.env.run()
        data = world.run(world.client.read("/app/f", 0, 40))
        assert data == b"A" * 10 + b"B" * 10 + b"C" * 10 + b"D" * 10

    def test_data_arg_validation(self, world):
        world.run(world.client.create("/app/f"))
        with pytest.raises(ValueError):
            world.run(world.client.write("/app/f", 0))
        with pytest.raises(ValueError):
            world.run(world.client.write("/app/f", 0, data=b"x", size=5))


class TestThresholdCrossing:
    def test_grows_past_threshold_moves_to_dfs(self):
        config = PaconConfig(workspace="/app", small_file_threshold=256)
        world = make_world(config=config)
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"x" * 100))
        world.run(world.client.write("/app/f", 100, size=500))  # crosses
        record = world.region.cache.peek("/app/f")
        assert record["large"] is True
        assert record["inline_data"] is None
        assert record["committed"] is True
        assert world.dfs.namespace.exists("/app/f")
        assert world.dfs.namespace.getattr("/app/f").size == 600

    def test_large_file_ops_redirect(self):
        config = PaconConfig(workspace="/app", small_file_threshold=256)
        world = make_world(config=config)
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, size=1000))
        ds_before = sum(ds.bytes_written for ds in world.dfs.data_servers)
        world.run(world.client.write("/app/f", 1000, size=1000))
        ds_after = sum(ds.bytes_written for ds in world.dfs.data_servers)
        assert ds_after == ds_before + 1000
        assert world.run(world.client.getattr("/app/f")).size == 2000

    def test_threshold_exact_stays_inline(self):
        config = PaconConfig(workspace="/app", small_file_threshold=256)
        world = make_world(config=config)
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, size=256))
        assert world.region.cache.peek("/app/f")["large"] is False


class TestFsync:
    def test_fsync_committed_writes_through(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"x" * 100))
        world.quiesce()
        world.run(world.client.fsync("/app/f"))
        assert world.dfs.namespace.getattr("/app/f").size == 100

    def test_fsync_before_create_commits_uses_cache_file(self, world):
        """The direct-I/O cache-file trick: data is durable on the DFS even
        though the target file is not created there yet."""
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"x" * 64))
        # No quiesce: create likely uncommitted; fsync must still work.
        world.run(world.client.fsync("/app/f"))
        record = world.region.cache.peek("/app/f")
        # Either the data was parked in a shadow cache file (create still
        # uncommitted) or the commit won the race and fsync wrote through.
        wrote_through = world.dfs.namespace.getattr("/app/f").size == 64
        assert record["shadow"] is True or wrote_through
        # After the create commits, the data is written back to the file.
        world.quiesce()
        assert world.dfs.namespace.getattr("/app/f").size == 64

    def test_fsync_empty_file_noop(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.fsync("/app/f"))  # must not raise

    def test_fsync_deleted_rejected(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        with pytest.raises(FileNotFound):
            world.run(world.client.fsync("/app/f"))
