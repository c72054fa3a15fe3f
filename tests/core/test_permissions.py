"""Unit tests for batch permission management (§III.C)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.core.deploy import PaconFS
from repro.core.permissions import PermissionSpec, RegionPermissions
from repro.dfs.inode import AccessMode


APP_UID, APP_GID = 1000, 1000
OTHER_UID, OTHER_GID = 2000, 2000


@pytest.fixture
def perms():
    return RegionPermissions(
        "/ws", PermissionSpec(mode=0o700, uid=APP_UID, gid=APP_GID))


class TestPermissionSpec:
    def test_permits_owner(self):
        spec = PermissionSpec(mode=0o700, uid=5, gid=5)
        assert spec.permits(5, 5, AccessMode.READ | AccessMode.WRITE)

    def test_denies_other(self):
        spec = PermissionSpec(mode=0o700, uid=5, gid=5)
        assert not spec.permits(6, 6, AccessMode.READ)

    def test_group_bits(self):
        spec = PermissionSpec(mode=0o750, uid=5, gid=9)
        assert spec.permits(6, 9, AccessMode.READ | AccessMode.EXECUTE)
        assert not spec.permits(6, 9, AccessMode.WRITE)


class TestBatchCheck:
    def test_app_user_allowed(self, perms):
        r = perms.check("/ws/a/b/c", APP_UID, APP_GID, AccessMode.WRITE)
        assert r.allowed

    def test_other_user_denied(self, perms):
        r = perms.check("/ws/a/b/c", OTHER_UID, OTHER_GID, AccessMode.READ)
        assert not r.allowed

    def test_outside_region_denied(self, perms):
        r = perms.check("/elsewhere/f", APP_UID, APP_GID, AccessMode.READ)
        assert not r.allowed
        assert r.reason == "outside region"

    def test_cost_independent_of_depth(self, perms):
        shallow = perms.check("/ws/f", APP_UID, APP_GID, AccessMode.READ)
        deep = perms.check("/ws/" + "/".join(f"d{i}" for i in range(30)),
                           APP_UID, APP_GID, AccessMode.READ)
        assert shallow.normal_checks == deep.normal_checks == 1
        assert shallow.special_items_scanned == deep.special_items_scanned

    def test_workspace_root_target(self, perms):
        r = perms.check("/ws", APP_UID, APP_GID, AccessMode.READ)
        assert r.allowed


class TestSpecialList:
    def test_special_target_overrides_normal(self, perms):
        perms.add_special("/ws/shared",
                          PermissionSpec(mode=0o755, uid=APP_UID,
                                         gid=APP_GID))
        r = perms.check("/ws/shared", OTHER_UID, OTHER_GID, AccessMode.READ)
        assert r.allowed

    def test_special_ancestor_can_deny_search(self, perms):
        perms.add_special("/ws/locked",
                          PermissionSpec(mode=0o600, uid=APP_UID,
                                         gid=APP_GID))
        # Even the owner loses search through a no-execute directory.
        r = perms.check("/ws/locked/f", APP_UID, APP_GID, AccessMode.READ)
        assert not r.allowed
        assert "locked" in r.reason

    def test_special_outside_workspace_rejected(self, perms):
        with pytest.raises(ValueError):
            perms.add_special("/other/dir", PermissionSpec())

    def test_remove_special_restores_normal(self, perms):
        perms.add_special("/ws/x", PermissionSpec(mode=0o777, uid=0, gid=0))
        perms.remove_special("/ws/x")
        assert perms.effective("/ws/x") is perms.normal

    def test_scan_count_matches_list_length(self, perms):
        for i in range(5):
            perms.add_special(f"/ws/s{i}", PermissionSpec())
        r = perms.check("/ws/a", APP_UID, APP_GID, AccessMode.READ)
        assert r.special_items_scanned == 5

    def test_effective_lookup(self, perms):
        special = PermissionSpec(mode=0o444, uid=1, gid=1)
        perms.add_special("/ws/ro", special)
        assert perms.effective("/ws/ro") == special
        assert perms.effective("/ws/other") == perms.normal


class TestCheckOp:
    def test_create_needs_parent_write(self, perms):
        assert perms.check_op("create", "/ws/d/f", APP_UID, APP_GID).allowed
        assert not perms.check_op("create", "/ws/d/f", OTHER_UID,
                                  OTHER_GID).allowed

    def test_create_in_readonly_special_parent_denied(self, perms):
        perms.add_special("/ws/ro",
                          PermissionSpec(mode=0o500, uid=APP_UID,
                                         gid=APP_GID))
        assert not perms.check_op("create", "/ws/ro/f", APP_UID,
                                  APP_GID).allowed

    def test_getattr_checks_traversal_only(self, perms):
        perms.add_special("/ws/noread",
                          PermissionSpec(mode=0o300, uid=APP_UID,
                                         gid=APP_GID))
        # getattr needs search on ancestors, not READ on the target.
        assert perms.check_op("getattr", "/ws/noread", APP_UID,
                              APP_GID).allowed

    def test_readdir_needs_read(self, perms):
        perms.add_special("/ws/wx",
                          PermissionSpec(mode=0o300, uid=APP_UID,
                                         gid=APP_GID))
        assert not perms.check_op("readdir", "/ws/wx", APP_UID,
                                  APP_GID).allowed

    def test_write_needs_write(self, perms):
        perms.add_special("/ws/ro",
                          PermissionSpec(mode=0o400, uid=APP_UID,
                                         gid=APP_GID))
        assert not perms.check_op("write", "/ws/ro", APP_UID,
                                  APP_GID).allowed
        assert perms.check_op("read", "/ws/ro", APP_UID, APP_GID).allowed

    def test_unknown_op_rejected(self, perms):
        with pytest.raises(ValueError):
            perms.check_op("chmodx", "/ws/a", APP_UID, APP_GID)


class TestDefaults:
    def test_linux_like_default(self):
        perms = RegionPermissions.linux_like_default("/ws", 42, 43)
        assert perms.check("/ws/any", 42, 43,
                           AccessMode.READ | AccessMode.WRITE
                           | AccessMode.EXECUTE).allowed
        assert not perms.check("/ws/any", 7, 7, AccessMode.READ).allowed



class TestVerdictCache:
    """A region keeps one receipt per key until its special list changes."""

    def test_a_denied_special_denies_on_the_very_next_check(self, perms):
        assert perms.check_op("create", "/ws/d/f", APP_UID, APP_GID).allowed
        assert perms.check("/ws/d/f", APP_UID, APP_GID,
                           AccessMode.READ).allowed
        perms.add_special("/ws/d", PermissionSpec(mode=0o600, uid=APP_UID,
                                                  gid=APP_GID))
        assert not perms.check_op("create", "/ws/d/f", APP_UID,
                                  APP_GID).allowed
        assert not perms.check("/ws/d/f", APP_UID, APP_GID,
                               AccessMode.READ).allowed

    def test_remove_special_restores_the_allowed_verdict(self, perms):
        perms.add_special("/ws/d", PermissionSpec(mode=0o600, uid=APP_UID,
                                                  gid=APP_GID))
        denied = perms.check_op("getattr", "/ws/d/f", APP_UID, APP_GID)
        assert not denied.allowed and denied.special_items_scanned == 1
        perms.remove_special("/ws/d")
        allowed = perms.check_op("getattr", "/ws/d/f", APP_UID, APP_GID)
        assert allowed.allowed and allowed.special_items_scanned == 0

    def test_receipts_are_shared_and_frozen(self, perms):
        first = perms.check_op("getattr", "/ws/d/f", APP_UID, APP_GID)
        assert perms.check_op("stat", "/ws/d/g", APP_UID, APP_GID) is first
        with pytest.raises(FrozenInstanceError):
            first.allowed = False

    def test_the_normal_spec_is_read_only(self, perms):
        with pytest.raises(AttributeError):
            perms.normal = PermissionSpec(mode=0o000)

    def test_remove_special_drops_the_subtree_and_keeps_siblings(self,
                                                                  perms):
        specs = {path: PermissionSpec(mode=0o500 + i) for i, path in
                 enumerate(("/ws/d", "/ws/d/x", "/ws/d/x/y", "/ws/dd"))}
        for path, spec in specs.items():
            perms.add_special(path, spec)
        assert perms.remove_special("/ws/d") == {
            p: specs[p] for p in ("/ws/d", "/ws/d/x", "/ws/d/x/y")}
        assert perms.special == {"/ws/dd": specs["/ws/dd"]}


class TestSpecialListFollowsTheNamespace:
    """A special entry goes with the name it describes: a later entry of
    that name starts from the normal permission (0o700 here)."""

    @staticmethod
    def _modes(fs, path):
        return (fs.region.cache.peek(path)["mode"],
                fs.dfs.namespace.getattr(path).mode
                & 0o777)

    @staticmethod
    def _steps(fs, *steps):
        for step in steps:
            step()
            fs.quiesce()

    def test_rm_drops_the_entry_of_the_removed_file(self):
        fs = PaconFS(workspace="/app", nodes=2)
        self._steps(fs, lambda: fs.create("/app/f"),
                    lambda: fs.chmod("/app/f", 0o600),
                    lambda: fs.rm("/app/f"),
                    lambda: fs.create("/app/f"))
        assert self._modes(fs, "/app/f") == (0o700, 0o700)
        assert fs.region.permissions.special == {}

    def test_rmdir_drops_every_entry_under_the_directory(self):
        fs = PaconFS(workspace="/app", nodes=2)
        self._steps(fs, lambda: fs.mkdir("/app/d"),
                    lambda: fs.create("/app/d/x"),
                    lambda: fs.chmod("/app/d/x", 0o400),
                    lambda: fs.rmdir("/app/d"),
                    lambda: fs.mkdir("/app/d"),
                    lambda: fs.create("/app/d/x"))
        assert self._modes(fs, "/app/d/x") == (0o700, 0o700)
        assert fs.region.permissions.special == {}
