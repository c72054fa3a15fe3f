"""Integration tests for PaconClient operations (§III.D)."""

import pytest

from repro.core.config import PaconConfig
from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    IsADirectory,
    PermissionDenied,
)
from tests.core.conftest import make_world


class TestCreateMkdir:
    def test_create_visible_in_cache_before_dfs(self, world):
        world.run(world.client.create("/app/f"))
        assert world.region.cache.peek("/app/f") is not None
        # The commit is asynchronous: the DFS may not have it yet.
        inode = world.run(world.client.getattr("/app/f"))
        assert inode.is_file

    def test_commit_reaches_dfs_after_quiesce(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/f")

    def test_committed_flag_flips(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        assert world.region.cache.peek("/app/f")["committed"] is True

    def test_duplicate_create_rejected(self, world):
        world.run(world.client.create("/app/f"))
        with pytest.raises(FileExists):
            world.run(world.client.create("/app/f"))

    def test_mkdir_then_create_inside(self, world):
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.create("/app/d/f"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/d/f")

    def test_parent_check_missing_parent(self, world):
        with pytest.raises(FileNotFound):
            world.run(world.client.create("/app/nodir/f"))

    def test_parent_check_disabled_allows_out_of_order(self):
        config = PaconConfig(workspace="/app", parent_check=False)
        world = make_world(config=config)
        # Child queued before parent exists anywhere; resubmission sorts it.
        world.run(world.client.create("/app/late/f"))
        world.run(world.client.mkdir("/app/late"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/late/f")

    def test_parent_cached_from_dfs_when_preexisting(self, world):
        # Admin created a dir on the DFS that Pacon has never seen.
        world.dfs.namespace.mkdir("/app/preexisting", mode=0o700,
                                  uid=1000, gid=1000)
        world.run(world.client.create("/app/preexisting/f"))
        assert world.region.cache.peek("/app/preexisting") is not None
        world.quiesce()
        assert world.dfs.namespace.exists("/app/preexisting/f")

    def test_mode_defaults_to_region_permission(self, world):
        inode = world.run(world.client.create("/app/f"))
        assert inode.mode == world.region.permissions.normal.mode

    def test_permission_denied_for_wrong_user(self):
        config = PaconConfig(workspace="/app", uid=1000, gid=1000)
        world = make_world(config=config)
        world.client.uid = 4242  # different system user
        with pytest.raises(PermissionDenied):
            world.run(world.client.create("/app/f"))


class TestGetattr:
    def test_hit_from_cache_no_dfs_traffic(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()  # let the async commit's own MDS traffic settle
        before = world.dfs.mds_servers[0].requests_served
        world.run(world.client.getattr("/app/f"))
        assert world.dfs.mds_servers[0].requests_served == before

    def test_miss_loads_from_dfs_into_cache(self, world):
        world.dfs.namespace.create("/app/cold", uid=1000, gid=1000)
        inode = world.run(world.client.getattr("/app/cold"))
        assert inode.is_file
        assert world.region.cache.peek("/app/cold")["committed"] is True
        # Second access is a pure cache hit.
        before = world.dfs.mds_servers[0].requests_served
        world.run(world.client.getattr("/app/cold"))
        assert world.dfs.mds_servers[0].requests_served == before

    def test_missing_everywhere_enoent(self, world):
        with pytest.raises(FileNotFound):
            world.run(world.client.getattr("/app/ghost"))

    def test_deleted_marker_hides_entry(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        with pytest.raises(FileNotFound):
            world.run(world.client.getattr("/app/f"))

    def test_exists_helper(self, world):
        world.run(world.client.create("/app/f"))
        assert world.run(world.client.exists("/app/f"))
        assert not world.run(world.client.exists("/app/g"))


class TestRm:
    def test_rm_marks_then_deletes_after_commit(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        marked = world.region.cache.peek("/app/f")
        assert marked is None or marked["deleted"] is True
        world.quiesce()
        assert world.region.cache.peek("/app/f") is None
        assert not world.dfs.namespace.exists("/app/f")

    def test_rm_missing_enoent(self, world):
        with pytest.raises(FileNotFound):
            world.run(world.client.rm("/app/ghost"))

    def test_rm_directory_eisdir(self, world):
        world.run(world.client.mkdir("/app/d"))
        with pytest.raises(IsADirectory):
            world.run(world.client.rm("/app/d"))

    def test_rm_double_enoent(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        with pytest.raises(FileNotFound):
            world.run(world.client.rm("/app/f"))

    def test_rm_dfs_resident_uncached(self, world):
        world.dfs.namespace.create("/app/cold", uid=1000, gid=1000)
        world.run(world.client.rm("/app/cold"))
        world.quiesce()
        assert not world.dfs.namespace.exists("/app/cold")

    def test_recreate_after_rm(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        world.run(world.client.create("/app/f"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/f")


class TestRmdirReaddir:
    def test_rmdir_removes_subtree_everywhere(self, world):
        world.run(world.client.mkdir("/app/d"))
        for i in range(5):
            world.run(world.client.create(f"/app/d/f{i}"))
        removed = world.run(world.client.rmdir("/app/d"))
        assert removed == 6
        assert not world.dfs.namespace.exists("/app/d")
        assert world.region.cache.peek("/app/d") is None
        assert world.region.cache.peek("/app/d/f0") is None

    def test_rmdir_waits_for_earlier_ops(self, world):
        """Barrier semantics: ops before the rmdir are on the DFS first."""
        world.run(world.client.mkdir("/app/d"))
        for i in range(20):
            world.run(world.client.create(f"/app/d/f{i}"))
        # No quiesce: the rmdir itself must flush the queue via barrier.
        removed = world.run(world.client.rmdir("/app/d"))
        assert removed == 21

    def test_rmdir_region_root_rejected(self, world):
        with pytest.raises(PermissionDenied):
            world.run(world.client.rmdir("/app"))

    def test_readdir_sees_all_queued_creates(self, world):
        world.run(world.client.mkdir("/app/d"))
        for name in ["x", "y", "z"]:
            world.run(world.client.create(f"/app/d/{name}"))
        names = world.run(world.client.readdir("/app/d"))
        assert names == ["x", "y", "z"]

    def test_readdir_is_barrier_not_cache_scan(self, world):
        world.run(world.client.create("/app/f"))
        epochs_before = world.region.barrier_epochs_completed
        world.run(world.client.readdir("/app"))
        assert world.region.barrier_epochs_completed == epochs_before + 1

    def test_create_after_rmdir_same_name(self, world):
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.create("/app/d/f"))
        world.run(world.client.rmdir("/app/d"))
        world.run(world.client.mkdir("/app/d"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/d")
        assert not world.dfs.namespace.exists("/app/d/f")


class TestRedirect:
    def test_out_of_region_ops_hit_dfs(self, world):
        world.dfs.namespace.mkdir("/public", mode=0o777)

        def scenario():
            yield from world.client.create("/public/f")
            inode = yield from world.client.getattr("/public/f")
            return inode

        inode = world.run(scenario())
        assert inode.is_file
        assert world.client.redirects == 2
        # Redirected writes are synchronous: already on the DFS.
        assert world.dfs.namespace.exists("/public/f")

    def test_out_of_region_not_cached(self, world):
        world.dfs.namespace.mkdir("/public", mode=0o777)
        world.run(world.client.create("/public/f"))
        assert world.region.cache.peek("/public/f") is None

    def test_out_of_region_subject_to_dfs_permissions(self, world):
        world.dfs.namespace.mkdir("/locked", mode=0o700, uid=1, gid=1)
        with pytest.raises(PermissionDenied):
            world.run(world.client.create("/locked/f"))


class TestMultiClientConsistency:
    def test_create_visible_to_other_node_immediately(self, world):
        other = world.new_client(node_index=3)
        world.run(world.client.create("/app/f"))
        # Strong consistency inside the region: no quiesce needed.
        inode = world.run(other.getattr("/app/f"))
        assert inode.is_file

    def test_rm_visible_to_other_node_immediately(self, world):
        other = world.new_client(node_index=2)
        world.run(world.client.create("/app/f"))
        world.run(other.rm("/app/f"))
        with pytest.raises(FileNotFound):
            world.run(world.client.getattr("/app/f"))

    def test_concurrent_create_one_winner(self, world):
        clients = [world.new_client(i) for i in range(4)]
        outcomes = []

        def racer(cl):
            try:
                yield from cl.create("/app/contested")
                outcomes.append("won")
            except FileExists:
                outcomes.append("lost")

        for cl in clients:
            world.cluster.env.process(racer(cl))
        world.cluster.env.run()
        assert outcomes.count("won") == 1
        assert outcomes.count("lost") == 3
        world.quiesce()
        assert world.dfs.namespace.exists("/app/contested")
