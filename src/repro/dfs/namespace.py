"""Hierarchical POSIX-like namespace with layer-by-layer permission checks.

This is the metadata heart of the BeeGFS-equivalent: a dentry tree plus an
inode table.  Every operation that takes a path performs the traditional
hierarchical traversal — each ancestor directory must exist, be a
directory, and (when ``check_perms`` is on) grant EXECUTE to the caller —
because that is precisely the cost Pacon's batch permission management
avoids (§II.C, Motivation 2).

The namespace is a pure data structure; the MDS actor stamps times and
charges simulated cost.  Subtree export/restore supports Pacon's
checkpoint-based failure recovery (§III.G).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.dfs.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidPath,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.dfs.inode import AccessMode, FileType, Inode

__all__ = ["Namespace", "normalize_path", "split_path", "parent_of",
           "basename", "is_within", "snapshot_entries"]

ROOT_INO = 1


def normalize_path(path: str) -> str:
    """Validate and canonicalize an absolute path.

    Rejects relative paths and '.'/'..' segments (the DFS client resolves
    those before they hit the wire, as real DFS clients do).
    """
    if not isinstance(path, str) or not path:
        raise InvalidPath(str(path), "empty path")
    if not path.startswith("/"):
        raise InvalidPath(path, "path must be absolute")
    if "\x00" in path:
        raise InvalidPath(path, "embedded NUL")
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise InvalidPath(path, "'.'/'..' must be client-resolved")
    return "/" + "/".join(parts)


def split_path(path: str) -> List[str]:
    """Components of ``path``; [] for the root.

    Precondition (all four helpers below): ``path`` is already
    normalized — they are plain string operations and validate nothing.
    """
    if path == "/":
        return []
    return path[1:].split("/")


def parent_of(path: str) -> str:
    """Parent directory of an already-normalized ``path``."""
    if path == "/":
        raise InvalidPath(path, "root has no parent")
    return path[:path.rfind("/")] or "/"


def basename(path: str) -> str:
    """Last component of an already-normalized ``path``."""
    if path == "/":
        raise InvalidPath(path, "root has no basename")
    return path[path.rfind("/") + 1:]


def is_within(path: str, ancestor: str) -> bool:
    """True if ``path`` equals or lies under ``ancestor`` (both already
    normalized)."""
    if ancestor == "/":
        return True
    return path == ancestor or path.startswith(ancestor + "/")


def snapshot_entries(tree: Dict[str, Any]) -> int:
    """Inodes in an :meth:`Namespace.export_subtree` tree, root included."""
    return 1 + sum(snapshot_entries(child)
                   for child in tree.get("children", {}).values())


class Namespace:
    """Dentry tree + inode table with POSIX traversal semantics."""

    def __init__(self, root_mode: int = 0o777):
        self._inodes: Dict[int, Inode] = {}
        self._children: Dict[int, Dict[str, int]] = {}
        self._next_ino = ROOT_INO
        # op counters (observability; the MDS exports these)
        self.lookups = 0
        self.mutations = 0
        # Commit stamps: ino -> (commit generation, commit sim-time) of
        # the last authoritative mutation touching that inode.  A side
        # table (never part of inode records or cache values) so enabling
        # the staleness lens cannot change record sizes or eviction.
        self._stamps: Dict[int, Tuple[int, float]] = {}
        root = self._alloc(FileType.DIRECTORY, mode=root_mode, uid=0, gid=0,
                           now=0.0)
        assert root.ino == ROOT_INO

    # -- allocation ---------------------------------------------------------
    def _alloc(self, ftype: FileType, mode: int, uid: int, gid: int,
               now: float) -> Inode:
        ino = self._next_ino
        self._next_ino += 1
        inode = Inode(ino=ino, ftype=ftype, mode=mode, uid=uid, gid=gid,
                      ctime=now, mtime=now)
        self._inodes[ino] = inode
        if ftype is FileType.DIRECTORY:
            self._children[ino] = {}
        # Restored subtrees re-alloc every inode, so stamping here keeps
        # checkpoint recovery covered; mutation methods re-stamp with the
        # post-increment generation.
        self._stamps[ino] = (self.mutations, now)
        return inode

    # -- traversal ------------------------------------------------------------
    def _resolve(self, path: str, uid: int, gid: int,
                 check_perms: bool) -> Inode:
        """Validate ``path`` and walk it from the root."""
        return self._walk(split_path(normalize_path(path)), uid, gid,
                          check_perms)

    def _walk(self, parts: List[str], uid: int, gid: int,
              check_perms: bool) -> Inode:
        """Walk validated components from the root; raises on any violation."""
        current = self._inodes[ROOT_INO]
        for i, name in enumerate(parts):
            if not current.is_dir:
                raise NotADirectory("/" + "/".join(parts[:i]))
            if check_perms and not current.permits(uid, gid,
                                                   AccessMode.EXECUTE):
                raise PermissionDenied("/" + "/".join(parts[:i]),
                                       "search permission")
            child_ino = self._children[current.ino].get(name)
            if child_ino is None:
                raise FileNotFound("/" + "/".join(parts[: i + 1]))
            current = self._inodes[child_ino]
            self.lookups += 1
        return current

    def _resolve_parent(self, path: str, uid: int, gid: int,
                        check_perms: bool) -> Tuple[Inode, str]:
        parts = split_path(normalize_path(path))
        if not parts:
            raise InvalidPath(path, "operation on root")
        parent = self._walk(parts[:-1], uid, gid, check_perms)
        if not parent.is_dir:
            raise NotADirectory("/" + "/".join(parts[:-1]))
        return parent, parts[-1]

    # -- queries --------------------------------------------------------------
    def exists(self, path: str) -> bool:
        try:
            self._resolve(path, 0, 0, check_perms=False)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def getattr(self, path: str, uid: int = 0, gid: int = 0,
                check_perms: bool = True) -> Inode:
        return self._resolve(path, uid, gid, check_perms).copy()

    def readdir(self, path: str, uid: int = 0, gid: int = 0,
                check_perms: bool = True) -> List[str]:
        inode = self._resolve(path, uid, gid, check_perms)
        if not inode.is_dir:
            raise NotADirectory(path)
        if check_perms and not inode.permits(uid, gid, AccessMode.READ):
            raise PermissionDenied(path, "read permission on directory")
        return sorted(self._children[inode.ino])

    def count_entries(self) -> int:
        """Total live inodes, excluding the root."""
        return len(self._inodes) - 1

    def commit_stamp(self, path: str) -> Optional[Tuple[int, float]]:
        """(commit generation, commit sim-time) of ``path``'s inode.

        Zero-cost observability peek: walks the child maps directly
        (no permission checks, no ``lookups`` counter bump — this query
        must never perturb the counters an instrumented run exports).
        Returns None when the path does not exist authoritatively.
        """
        try:
            parts = split_path(normalize_path(path))
        except InvalidPath:
            return None
        ino = ROOT_INO
        for name in parts:
            children = self._children.get(ino)
            if children is None:
                return None
            child = children.get(name)
            if child is None:
                return None
            ino = child
        return self._stamps.get(ino)

    def walk(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Depth-first iteration of (path, inode) under ``path``, inclusive."""
        base = normalize_path(path)
        start = self._walk(split_path(base), 0, 0, check_perms=False)
        stack: List[Tuple[str, Inode]] = [(base, start)]
        while stack:
            current_path, inode = stack.pop()
            yield current_path, inode
            if inode.is_dir:
                prefix = "" if current_path == "/" else current_path
                for name in sorted(self._children[inode.ino], reverse=True):
                    child = self._inodes[self._children[inode.ino][name]]
                    stack.append((f"{prefix}/{name}", child))

    # -- mutations ------------------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755, uid: int = 0, gid: int = 0,
              now: float = 0.0, check_perms: bool = True) -> Inode:
        parent, name = self._resolve_parent(path, uid, gid, check_perms)
        self._check_parent_write(parent, path, uid, gid, check_perms)
        if name in self._children[parent.ino]:
            raise FileExists(path)
        inode = self._alloc(FileType.DIRECTORY, mode, uid, gid, now)
        self._children[parent.ino][name] = inode.ino
        parent.mtime = now
        self.mutations += 1
        self._stamps[inode.ino] = (self.mutations, now)
        return inode.copy()

    def create(self, path: str, mode: int = 0o644, uid: int = 0, gid: int = 0,
               now: float = 0.0, check_perms: bool = True) -> Inode:
        """Exclusive file creation (O_CREAT|O_EXCL semantics)."""
        parent, name = self._resolve_parent(path, uid, gid, check_perms)
        self._check_parent_write(parent, path, uid, gid, check_perms)
        if name in self._children[parent.ino]:
            raise FileExists(path)
        inode = self._alloc(FileType.FILE, mode, uid, gid, now)
        self._children[parent.ino][name] = inode.ino
        parent.mtime = now
        self.mutations += 1
        self._stamps[inode.ino] = (self.mutations, now)
        return inode.copy()

    def unlink(self, path: str, uid: int = 0, gid: int = 0, now: float = 0.0,
               check_perms: bool = True) -> None:
        parent, name = self._resolve_parent(path, uid, gid, check_perms)
        self._check_parent_write(parent, path, uid, gid, check_perms)
        child_ino = self._children[parent.ino].get(name)
        if child_ino is None:
            raise FileNotFound(path)
        child = self._inodes[child_ino]
        if child.is_dir:
            raise IsADirectory(path)
        del self._children[parent.ino][name]
        del self._inodes[child_ino]
        self._stamps.pop(child_ino, None)
        parent.mtime = now
        self.mutations += 1

    def rmdir(self, path: str, uid: int = 0, gid: int = 0, now: float = 0.0,
              check_perms: bool = True, recursive: bool = False) -> int:
        """Remove a directory; returns the number of inodes removed.

        With ``recursive`` the whole subtree is removed (the commit module
        uses this for Pacon's rmdir, whose cache-side semantics are
        recursive; plain DFS clients call it non-recursively).
        """
        parent, name = self._resolve_parent(path, uid, gid, check_perms)
        self._check_parent_write(parent, path, uid, gid, check_perms)
        child_ino = self._children[parent.ino].get(name)
        if child_ino is None:
            raise FileNotFound(path)
        child = self._inodes[child_ino]
        if not child.is_dir:
            raise NotADirectory(path)
        if self._children[child.ino] and not recursive:
            raise DirectoryNotEmpty(path)
        removed = self._drop_subtree(child_ino)
        del self._children[parent.ino][name]
        parent.mtime = now
        self.mutations += 1
        return removed

    def _drop_subtree(self, ino: int) -> int:
        inode = self._inodes[ino]
        removed = 1
        if inode.is_dir:
            for child_ino in list(self._children[ino].values()):
                removed += self._drop_subtree(child_ino)
            del self._children[ino]
        del self._inodes[ino]
        self._stamps.pop(ino, None)
        return removed

    def setattr(self, path: str, uid: int = 0, gid: int = 0,
                now: float = 0.0, check_perms: bool = True,
                mode: Optional[int] = None, size: Optional[int] = None,
                new_uid: Optional[int] = None,
                new_gid: Optional[int] = None) -> Inode:
        inode = self._resolve(path, uid, gid, check_perms)
        if check_perms and uid != 0 and uid != inode.uid:
            raise PermissionDenied(path, "only the owner may setattr")
        if mode is not None:
            inode.mode = mode
        if size is not None:
            if inode.is_dir:
                raise IsADirectory(path)
            inode.size = size
        if new_uid is not None:
            inode.uid = new_uid
        if new_gid is not None:
            inode.gid = new_gid
        inode.mtime = now
        self.mutations += 1
        self._stamps[inode.ino] = (self.mutations, now)
        return inode.copy()

    def rename(self, src: str, dst: str, uid: int = 0, gid: int = 0,
               now: float = 0.0, check_perms: bool = True) -> None:
        """Atomic rename (extension beyond the paper's op table)."""
        src, dst = normalize_path(src), normalize_path(dst)
        if is_within(dst, src):
            raise InvalidPath(dst, "cannot move a directory into itself")
        src_parent, src_name = self._resolve_parent(src, uid, gid, check_perms)
        self._check_parent_write(src_parent, src, uid, gid, check_perms)
        moving_ino = self._children[src_parent.ino].get(src_name)
        if moving_ino is None:
            raise FileNotFound(src)
        dst_parent, dst_name = self._resolve_parent(dst, uid, gid, check_perms)
        self._check_parent_write(dst_parent, dst, uid, gid, check_perms)
        if dst_name in self._children[dst_parent.ino]:
            raise FileExists(dst)
        del self._children[src_parent.ino][src_name]
        self._children[dst_parent.ino][dst_name] = moving_ino
        src_parent.mtime = now
        dst_parent.mtime = now
        self.mutations += 1
        self._stamps[moving_ino] = (self.mutations, now)

    def _check_parent_write(self, parent: Inode, path: str, uid: int,
                            gid: int, check_perms: bool) -> None:
        if check_perms and not parent.permits(
                uid, gid, AccessMode.WRITE | AccessMode.EXECUTE):
            raise PermissionDenied(path, "write permission on parent")

    # -- subtree checkpoint/restore (§III.G) -----------------------------------
    def export_subtree(self, path: str) -> Dict[str, Any]:
        """Serialize the subtree rooted at ``path`` (inclusive)."""
        root = self._resolve(path, 0, 0, check_perms=False)
        if not root.is_dir:
            raise NotADirectory(path)

        def export(ino: int) -> Dict[str, Any]:
            inode = self._inodes[ino]
            node: Dict[str, Any] = {"inode": inode.to_record()}
            if inode.is_dir:
                node["children"] = {
                    name: export(child)
                    for name, child in sorted(self._children[ino].items())
                }
            return node

        return {"path": normalize_path(path), "tree": export(root.ino)}

    def restore_subtree(self, checkpoint: Dict[str, Any],
                        now: float = 0.0) -> int:
        """Replace the subtree at the checkpoint's path with its contents.

        The subtree root's own attributes are restored too.  Returns the
        number of inodes restored (excluding the root directory itself).
        """
        path = checkpoint["path"]
        root = self._resolve(path, 0, 0, check_perms=False)
        if not root.is_dir:
            raise NotADirectory(path)
        # Drop current children.
        for child_ino in list(self._children[root.ino].values()):
            self._drop_subtree(child_ino)
        self._children[root.ino] = {}
        # Restore attributes of the region root (identity/ino unchanged).
        rec = checkpoint["tree"]["inode"]
        root.mode, root.uid, root.gid = rec["mode"], rec["uid"], rec["gid"]

        count = 0

        def restore(parent_ino: int, name: str, node: Dict[str, Any]) -> None:
            nonlocal count
            rec = node["inode"]
            ftype = FileType(rec["ftype"])
            inode = self._alloc(ftype, rec["mode"], rec["uid"], rec["gid"],
                                now)
            inode.size = rec["size"]
            inode.inline_data = rec.get("inline_data")
            self._children[parent_ino][name] = inode.ino
            count += 1
            if ftype is FileType.DIRECTORY:
                for child_name, child in node.get("children", {}).items():
                    restore(inode.ino, child_name, child)

        for name, node in checkpoint["tree"].get("children", {}).items():
            restore(root.ino, name, node)
        self.mutations += 1
        return count
