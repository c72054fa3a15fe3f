"""Batch permission management (§III.C, Motivation 2).

Instead of checking r/w/x bits on every level of a path (which costs one
network round trip per level in a DFS), Pacon exploits two HPC facts:

1. all clients of an application use one system user, and
2. the application can predeclare the permissions of its workspace.

A region therefore carries a **normal permission** — the mode/owner that
applies to (almost) every file and directory in the workspace — plus a
**special permission list** for the exceptions.  A permission check then
costs one mode-bit match against the normal permission plus one scan of
the (short) special list, independent of path depth.

The check is *equivalent* to hierarchical traversal under the stated HPC
assumptions: because every non-special ancestor inside the region shares
the normal permission, checking EXECUTE once against the normal permission
answers for all of them; special ancestors are covered by the list scan.
(`tests/properties/test_permission_equivalence.py` verifies this against
the real namespace traversal.)

A region decides each ``(target, uid, gid, access)`` key once and keeps
the frozen receipt: a verdict depends only on those, the normal spec, the
special list and the workspace, and every change to the special list
clears the cache.  After a key's first sight a check costs the host one
dict lookup per op; the simulated cost, read off the receipt's counts, is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dfs.inode import AccessMode, check_mode_bits
from repro.dfs.namespace import is_within, normalize_path, parent_of

__all__ = ["PermissionSpec", "RegionPermissions", "CheckReceipt"]


@dataclass(frozen=True)
class PermissionSpec:
    """(mode, owner uid, owner gid) for a file/directory class."""

    mode: int = 0o700
    uid: int = 1000
    gid: int = 1000

    def permits(self, uid: int, gid: int, want: int) -> bool:
        return check_mode_bits(self.mode, uid, gid, self.uid, self.gid, want)


@dataclass(frozen=True)
class CheckReceipt:
    """Outcome + work performed by one batch permission check.

    Frozen: the region hands the same receipt to every check of its key.
    """

    allowed: bool
    normal_checks: int = 0
    special_items_scanned: int = 0
    reason: str = ""


_READ = int(AccessMode.READ)
_WRITE = int(AccessMode.WRITE)
_EXECUTE = int(AccessMode.EXECUTE)
_WRITE_EXECUTE = _WRITE | _EXECUTE

# op -> (checked on the parent?, access wanted there).  Mutations need
# WRITE|EXECUTE on the parent directory; a stat is pure traversal (search
# on the ancestors, EXECUTE on the parent as the final gate); reads and
# writes need their bit on the target.
_OP_ACCESS: Dict[str, Tuple[bool, int]] = {
    **dict.fromkeys(("create", "mkdir", "rm", "unlink", "rmdir"),
                    (True, _WRITE_EXECUTE)),
    **dict.fromkeys(("getattr", "stat"), (True, _EXECUTE)),
    **dict.fromkeys(("read", "readdir"), (False, _READ)),
    **dict.fromkeys(("write", "setattr", "chmod", "fsync"), (False, _WRITE)),
}


class RegionPermissions:
    """Normal + special permission information for one consistent region."""

    def __init__(self, workspace: str, normal: PermissionSpec,
                 special: Optional[Dict[str, PermissionSpec]] = None):
        self.workspace = normalize_path(workspace)
        self._normal = normal
        self._special: Dict[str, PermissionSpec] = {}
        # (target path, uid, gid, access) -> its receipt.  A verdict
        # depends on nothing else that can change, so the cache only
        # goes stale when the special list does, and then it is cleared.
        self._verdicts: Dict[Tuple[str, int, int, int], CheckReceipt] = {}
        for path, spec in (special or {}).items():
            self.add_special(path, spec)

    @property
    def normal(self) -> PermissionSpec:
        return self._normal

    # -- special list maintenance -------------------------------------------
    def add_special(self, path: str, spec: PermissionSpec) -> None:
        path = normalize_path(path)
        if not is_within(path, self.workspace):
            raise ValueError(
                f"special permission {path!r} outside workspace"
                f" {self.workspace!r}")
        self._special[path] = spec
        self._verdicts.clear()

    def remove_special(self, path: str) -> Dict[str, PermissionSpec]:
        """Drop the entries at or under ``path`` — an ``rm`` or an
        ``rmdir`` — and return them."""
        path = normalize_path(path)
        dropped = {p: spec for p, spec in self._special.items()
                   if is_within(p, path)}
        for p in dropped:
            del self._special[p]
        if dropped:
            self._verdicts.clear()
        return dropped

    def move_special(self, src: str, dst: str) -> None:
        """A rename of ``src`` to ``dst``: the entries at or under ``dst``
        go, and those at or under ``src`` move to the same relative path
        under ``dst``."""
        src, dst = normalize_path(src), normalize_path(dst)
        self.remove_special(dst)
        moved = [p for p in self._special if is_within(p, src)]
        for p in moved:
            self._special[dst + p[len(src):]] = self._special.pop(p)
        if moved:
            self._verdicts.clear()

    @property
    def special(self) -> Dict[str, PermissionSpec]:
        return dict(self._special)

    def effective(self, path: str) -> PermissionSpec:
        """The permission spec that governs ``path``."""
        return self._effective(normalize_path(path))

    def _effective(self, path: str) -> PermissionSpec:
        """:meth:`effective` on an already-normalized ``path``."""
        return self._special.get(path, self._normal)

    # -- the batch check -------------------------------------------------------
    def check(self, path: str, uid: int, gid: int,
              want: AccessMode) -> CheckReceipt:
        """Check ``want`` access on ``path`` without path traversal.

        Search permission on all ancestors inside the region is validated
        with a single EXECUTE match on the normal permission plus one scan
        of the special list for ancestor overrides; ``want`` is then
        matched against the target's effective permission.
        """
        key = (normalize_path(path), uid, gid, int(want))
        return self._verdicts.get(key) or self._decide(key)

    def check_op(self, op: str, path: str, uid: int,
                 gid: int) -> CheckReceipt:
        """Permission check for a named metadata operation.

        Mirrors what hierarchical traversal enforces: mutations need
        WRITE|EXECUTE on the parent directory; reads need the appropriate
        bit on the target.
        """
        return self._check_op(op, normalize_path(path), uid, gid)

    def _check_op(self, op: str, path: str, uid: int,
                  gid: int) -> CheckReceipt:
        """:meth:`check_op` on an already-normalized ``path``."""
        try:
            on_parent, want = _OP_ACCESS[op]
        except KeyError:
            raise ValueError(f"unknown operation {op!r}") from None
        if on_parent and path != "/":
            path = path[:path.rfind("/")] or "/"
        key = (path, uid, gid, want)
        return self._verdicts.get(key) or self._decide(key)

    def _decide(self, key: Tuple[str, int, int, int]) -> CheckReceipt:
        """Decide a key on its first sight and keep the receipt (always
        truthy, so ``self._verdicts.get(key) or self._decide(key)``)."""
        receipt = self._verdicts[key] = self._batch_check(*key)
        return receipt

    def _batch_check(self, path: str, uid: int, gid: int,
                     want: int) -> CheckReceipt:
        """The batch check itself, on an already-normalized ``path``."""
        if not is_within(path, self.workspace):
            return CheckReceipt(False, reason="outside region")
        # 1) Region-wide search permission via the normal spec (one check
        #    answers for every non-special ancestor inside the region).
        #    Every ancestor strictly inside the region carries the normal
        #    spec unless overridden; if even one ancestor with the normal
        #    spec exists on the path, access dies here.
        if path != self.workspace \
                and not self._normal.permits(uid, gid, _EXECUTE) \
                and self._has_normal_ancestor(path):
            return CheckReceipt(False, 1, 0, "search permission (normal)")
        # 2) Scan the special list for ancestor overrides.
        scanned = 0
        for special_path, spec in self._special.items():
            scanned += 1
            if special_path != path and is_within(path, special_path) \
                    and special_path != self.workspace \
                    and not spec.permits(uid, gid, _EXECUTE):
                return CheckReceipt(False, 1, scanned,
                                    f"search permission ({special_path})")
        # 3) The target itself.  Search permission on the workspace root is
        #    granted by region membership (established at region creation),
        #    so only the non-EXECUTE bits are checked there.
        if path == self.workspace:
            want &= ~_EXECUTE
        if want and not self._special.get(path, self._normal).permits(
                uid, gid, want):
            return CheckReceipt(False, 1, scanned, "target permission")
        return CheckReceipt(True, 1, scanned)

    def _has_normal_ancestor(self, path: str) -> bool:
        """True if some strict ancestor inside the region is non-special."""
        current = parent_of(path)
        while is_within(current, self.workspace) and \
                current != self.workspace:
            if current not in self._special:
                return True
            current = parent_of(current)
        return False

    # -- defaults -----------------------------------------------------------------
    @classmethod
    def linux_like_default(cls, workspace: str, uid: int,
                           gid: int) -> "RegionPermissions":
        """§III.C default: creator has full access to everything."""
        return cls(workspace, PermissionSpec(mode=0o700, uid=uid, gid=gid))
