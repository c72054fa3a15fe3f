"""Tests for the extension operation chmod."""

import pytest

from repro.dfs.errors import FileNotFound, PermissionDenied
from tests.core.conftest import make_world


class TestChmod:
    def test_chmod_committed_file(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        world.run(world.client.chmod("/app/f", 0o640))
        assert world.run(world.client.getattr("/app/f")).mode == 0o640
        assert world.dfs.namespace.getattr("/app/f").mode == 0o640

    def test_chmod_uncommitted_file_mode_reaches_dfs(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.chmod("/app/f", 0o600))
        world.quiesce()
        assert world.dfs.namespace.getattr("/app/f").mode == 0o600

    def test_chmod_registers_special_permission(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.chmod("/app/f", 0o444))
        assert "/app/f" in world.region.permissions.special
        assert world.region.permissions.effective("/app/f").mode == 0o444

    def test_chmod_enforced_by_batch_check(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.chmod("/app/f", 0o400))  # read-only
        with pytest.raises(PermissionDenied):
            world.run(world.client.write("/app/f", 0, data=b"x"))
        # Reading still allowed.
        world.run(world.client.read("/app/f", 0, 1))

    def test_chmod_missing_enoent(self, world):
        with pytest.raises(FileNotFound):
            world.run(world.client.chmod("/app/ghost", 0o600))

    def test_chmod_dfs_resident_uncached(self, world):
        world.dfs.namespace.create("/app/cold", uid=1000, gid=1000)
        world.run(world.client.chmod("/app/cold", 0o604))
        assert world.dfs.namespace.getattr("/app/cold").mode == 0o604

    def test_chmod_outside_region_redirects(self, world):
        world.dfs.namespace.mkdir("/public", mode=0o777)
        world.dfs.namespace.create("/public/f", uid=1000, gid=1000)
        world.run(world.client.chmod("/public/f", 0o640))
        assert world.dfs.namespace.getattr("/public/f").mode == 0o640
