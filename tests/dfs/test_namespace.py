"""Unit tests for the hierarchical namespace."""

import pytest

from repro.dfs.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidPath,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.dfs.namespace import (
    Namespace,
    is_within,
    normalize_path,
    parent_of,
    split_path,
)


@pytest.fixture
def ns():
    return Namespace()


class TestPathHelpers:
    def test_normalize_collapses_slashes(self):
        assert normalize_path("//a///b/") == "/a/b"

    def test_normalize_root(self):
        assert normalize_path("/") == "/"

    def test_relative_rejected(self):
        with pytest.raises(InvalidPath):
            normalize_path("a/b")

    def test_empty_rejected(self):
        with pytest.raises(InvalidPath):
            normalize_path("")

    def test_dot_segments_rejected(self):
        with pytest.raises(InvalidPath):
            normalize_path("/a/../b")
        with pytest.raises(InvalidPath):
            normalize_path("/a/./b")

    def test_nul_rejected(self):
        with pytest.raises(InvalidPath):
            normalize_path("/a\x00b")

    def test_split_path(self):
        assert split_path("/") == []
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_parent_and_basename(self):
        assert parent_of("/a/b/c") == "/a/b"
        assert parent_of("/a") == "/"
        assert split_path("/a/b")[-1] == "b"

    def test_parent_of_root_rejected(self):
        with pytest.raises(InvalidPath):
            parent_of("/")

    def test_is_within(self):
        assert is_within("/a/b", "/a")
        assert is_within("/a", "/a")
        assert is_within("/anything", "/")
        assert not is_within("/ab", "/a")
        assert not is_within("/a", "/a/b")


class TestMkdirCreate:
    def test_mkdir_and_getattr(self, ns):
        ns.mkdir("/work", mode=0o750, uid=7, gid=8, now=2.0)
        inode = ns.getattr("/work")
        assert inode.is_dir
        assert (inode.mode, inode.uid, inode.gid) == (0o750, 7, 8)
        assert inode.ctime == 2.0

    def test_nested_mkdir_requires_parent(self, ns):
        with pytest.raises(FileNotFound):
            ns.mkdir("/a/b")

    def test_mkdir_duplicate_rejected(self, ns):
        ns.mkdir("/a")
        with pytest.raises(FileExists):
            ns.mkdir("/a")

    def test_mkdir_on_root_rejected(self, ns):
        with pytest.raises(InvalidPath):
            ns.mkdir("/")

    def test_create_file(self, ns):
        ns.mkdir("/d", mode=0o777)
        inode = ns.create("/d/f", mode=0o644, uid=1, gid=1)
        assert inode.is_file
        assert ns.getattr("/d/f").ino == inode.ino

    def test_create_under_file_rejected(self, ns):
        ns.mkdir("/d")
        ns.create("/d/f")
        with pytest.raises(NotADirectory):
            ns.create("/d/f/x")

    def test_create_duplicate_rejected(self, ns):
        ns.mkdir("/d")
        ns.create("/d/f")
        with pytest.raises(FileExists):
            ns.create("/d/f")

    def test_inos_unique_and_increasing(self, ns):
        a = ns.mkdir("/a")
        b = ns.create("/b")
        assert b.ino > a.ino

    def test_mkdir_updates_parent_mtime(self, ns):
        ns.mkdir("/d", now=1.0)
        ns.mkdir("/d/sub", now=5.0)
        assert ns.getattr("/d").mtime == 5.0


class TestRemove:
    def test_unlink_file(self, ns):
        ns.mkdir("/d")
        ns.create("/d/f")
        ns.unlink("/d/f")
        assert not ns.exists("/d/f")

    def test_unlink_missing(self, ns):
        ns.mkdir("/d")
        with pytest.raises(FileNotFound):
            ns.unlink("/d/f")

    def test_unlink_directory_rejected(self, ns):
        ns.mkdir("/d")
        with pytest.raises(IsADirectory):
            ns.unlink("/d")

    def test_rmdir_empty(self, ns):
        ns.mkdir("/d")
        assert ns.rmdir("/d") == 1
        assert not ns.exists("/d")

    def test_rmdir_nonempty_rejected(self, ns):
        ns.mkdir("/d")
        ns.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            ns.rmdir("/d")

    def test_rmdir_recursive_counts_subtree(self, ns):
        ns.mkdir("/d")
        ns.mkdir("/d/s")
        ns.create("/d/s/f1")
        ns.create("/d/f2")
        assert ns.rmdir("/d", recursive=True) == 4
        assert ns.count_entries() == 0

    def test_rmdir_on_file_rejected(self, ns):
        ns.create("/f")
        with pytest.raises(NotADirectory):
            ns.rmdir("/f")


class TestReaddirWalk:
    def test_readdir_sorted(self, ns):
        ns.mkdir("/d")
        for name in ["c", "a", "b"]:
            ns.create(f"/d/{name}")
        assert ns.readdir("/d") == ["a", "b", "c"]

    def test_readdir_file_rejected(self, ns):
        ns.create("/f")
        with pytest.raises(NotADirectory):
            ns.readdir("/f")

    def test_walk_inclusive_dfs(self, ns):
        ns.mkdir("/a")
        ns.mkdir("/a/b")
        ns.create("/a/b/f")
        paths = [p for p, _ in ns.walk("/a")]
        assert paths == ["/a", "/a/b", "/a/b/f"]

    def test_walk_from_root(self, ns):
        ns.mkdir("/a")
        paths = [p for p, _ in ns.walk("/")]
        assert paths == ["/", "/a"]

    def test_count_entries(self, ns):
        ns.mkdir("/a")
        ns.create("/a/f")
        assert ns.count_entries() == 2


class TestPermissions:
    def test_traversal_needs_execute(self, ns):
        ns.mkdir("/locked", mode=0o600, uid=1, gid=1)
        # Root makes the file (no mode bit stops it), then hands it to 1.
        ns.create("/locked/f")
        ns.setattr("/locked/f", new_uid=1, new_gid=1)
        with pytest.raises(PermissionDenied):
            ns.getattr("/locked/f", uid=2, gid=2)

    def test_owner_can_traverse(self, ns):
        ns.mkdir("/mine", mode=0o700, uid=1, gid=1)
        ns.create("/mine/f", uid=1, gid=1)
        assert ns.getattr("/mine/f", uid=1, gid=1).is_file

    def test_create_needs_parent_write(self, ns):
        ns.mkdir("/ro", mode=0o755, uid=1, gid=1)
        with pytest.raises(PermissionDenied):
            ns.create("/ro/f", uid=2, gid=2)

    def test_unlink_needs_parent_write(self, ns):
        ns.mkdir("/ro", mode=0o755, uid=1, gid=1)
        ns.create("/ro/f", uid=1, gid=1)
        with pytest.raises(PermissionDenied):
            ns.unlink("/ro/f", uid=2, gid=2)

    def test_readdir_needs_read(self, ns):
        ns.mkdir("/wx", mode=0o300, uid=1, gid=1)
        with pytest.raises(PermissionDenied):
            ns.readdir("/wx", uid=1, gid=1)

    def test_setattr_owner_only(self, ns):
        ns.create("/f", uid=1, gid=1)
        with pytest.raises(PermissionDenied):
            ns.setattr("/f", uid=2, gid=2, mode=0o777)
        ns.setattr("/f", uid=1, gid=1, mode=0o600)
        assert ns.getattr("/f").mode == 0o600


class TestSetattrRename:
    def test_setattr_size(self, ns):
        ns.create("/f")
        ns.setattr("/f", size=4096)
        assert ns.getattr("/f").size == 4096

    def test_setattr_size_on_dir_rejected(self, ns):
        ns.mkdir("/d")
        with pytest.raises(IsADirectory):
            ns.setattr("/d", size=1)

    def test_setattr_chown(self, ns):
        ns.create("/f")
        ns.setattr("/f", new_uid=42, new_gid=43)
        inode = ns.getattr("/f")
        assert (inode.uid, inode.gid) == (42, 43)


class TestSubtreeCheckpoint:
    def build(self, ns):
        ns.mkdir("/ws", mode=0o770, uid=9, gid=9)
        ns.mkdir("/ws/sub", uid=9, gid=9)
        ns.create("/ws/sub/f1", uid=9, gid=9)
        ns.create("/ws/f2", uid=9, gid=9)

    def test_export_contains_whole_subtree(self, ns):
        self.build(ns)
        snap = ns.export_subtree("/ws")
        assert snap["path"] == "/ws"
        assert set(snap["tree"]["children"]) == {"sub", "f2"}
        assert "f1" in snap["tree"]["children"]["sub"]["children"]

    def test_export_file_rejected(self, ns):
        ns.create("/f")
        with pytest.raises(NotADirectory):
            ns.export_subtree("/f")

    def test_restore_rolls_back_new_entries(self, ns):
        self.build(ns)
        snap = ns.export_subtree("/ws")
        ns.create("/ws/after", uid=9, gid=9)
        ns.unlink("/ws/f2", uid=9, gid=9)
        restored = ns.restore_subtree(snap)
        assert restored == 3
        assert ns.exists("/ws/f2")
        assert not ns.exists("/ws/after")
        assert ns.exists("/ws/sub/f1")

    def test_restore_preserves_attrs(self, ns):
        self.build(ns)
        ns.setattr("/ws/f2", uid=9, mode=0o640)
        snap = ns.export_subtree("/ws")
        ns.restore_subtree(snap)
        assert ns.getattr("/ws/f2").mode == 0o640

    def test_restore_does_not_touch_outside(self, ns):
        self.build(ns)
        ns.mkdir("/other")
        snap = ns.export_subtree("/ws")
        ns.create("/other/x")
        ns.restore_subtree(snap)
        assert ns.exists("/other/x")
