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

    def permits(self, uid: int, gid: int, want: AccessMode) -> bool:
        return check_mode_bits(self.mode, uid, gid, self.uid, self.gid, want)


@dataclass
class CheckReceipt:
    """Outcome + work performed by one batch permission check."""

    allowed: bool
    normal_checks: int = 0
    special_items_scanned: int = 0
    reason: str = ""


_WRITE_EXECUTE = AccessMode.WRITE | AccessMode.EXECUTE


class RegionPermissions:
    """Normal + special permission information for one consistent region."""

    def __init__(self, workspace: str, normal: PermissionSpec,
                 special: Optional[Dict[str, PermissionSpec]] = None):
        self.workspace = normalize_path(workspace)
        self.normal = normal
        self._special: Dict[str, PermissionSpec] = {}
        for path, spec in (special or {}).items():
            self.add_special(path, spec)

    # -- special list maintenance -------------------------------------------
    def add_special(self, path: str, spec: PermissionSpec) -> None:
        path = normalize_path(path)
        if not is_within(path, self.workspace):
            raise ValueError(
                f"special permission {path!r} outside workspace"
                f" {self.workspace!r}")
        self._special[path] = spec

    def remove_special(self, path: str) -> None:
        self._special.pop(normalize_path(path), None)

    @property
    def special(self) -> Dict[str, PermissionSpec]:
        return dict(self._special)

    def effective(self, path: str) -> PermissionSpec:
        """The permission spec that governs ``path``."""
        return self._effective(normalize_path(path))

    def _effective(self, path: str) -> PermissionSpec:
        """:meth:`effective` on an already-normalized ``path``."""
        return self._special.get(path, self.normal)

    # -- the batch check -------------------------------------------------------
    def check(self, path: str, uid: int, gid: int,
              want: AccessMode) -> CheckReceipt:
        """Check ``want`` access on ``path`` without path traversal.

        Search permission on all ancestors inside the region is validated
        with a single EXECUTE match on the normal permission plus one scan
        of the special list for ancestor overrides; ``want`` is then
        matched against the target's effective permission.
        """
        return self._check(normalize_path(path), uid, gid, want)

    def _check(self, path: str, uid: int, gid: int,
               want: AccessMode) -> CheckReceipt:
        """:meth:`check` on an already-normalized ``path``."""
        receipt = CheckReceipt(allowed=False)
        if not is_within(path, self.workspace):
            receipt.reason = "outside region"
            return receipt
        # 1) Region-wide search permission via the normal spec (one check
        #    answers for every non-special ancestor inside the region).
        receipt.normal_checks = 1
        if path != self.workspace:
            if not self.normal.permits(uid, gid, AccessMode.EXECUTE):
                # Every ancestor strictly inside the region carries the
                # normal spec unless overridden; if even one ancestor with
                # the normal spec exists on the path, access dies here.
                if self._has_normal_ancestor(path):
                    receipt.reason = "search permission (normal)"
                    return receipt
        # 2) Scan the special list for ancestor overrides.
        for special_path, spec in self._special.items():
            receipt.special_items_scanned += 1
            if special_path != path and is_within(path, special_path) \
                    and special_path != self.workspace:
                if not spec.permits(uid, gid, AccessMode.EXECUTE):
                    receipt.reason = f"search permission ({special_path})"
                    return receipt
        # 3) The target itself.  Search permission on the workspace root is
        #    granted by region membership (established at region creation),
        #    so only the non-EXECUTE bits are checked there.
        want_bits = int(want)
        if path == self.workspace:
            want_bits &= ~int(AccessMode.EXECUTE)
        target_spec = self._special.get(path, self.normal)
        if want_bits and not target_spec.permits(uid, gid,
                                                 AccessMode(want_bits)):
            receipt.reason = "target permission"
            return receipt
        receipt.allowed = True
        return receipt

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
        if op in ("create", "mkdir", "rm", "unlink", "rmdir"):
            parent = parent_of(path) if path != "/" else path
            return self._check(parent, uid, gid, _WRITE_EXECUTE)
        if op in ("getattr", "stat"):
            # Pure traversal: validated by the ancestor machinery; use
            # EXECUTE on the parent as the final gate.
            parent = parent_of(path) if path != "/" else path
            return self._check(parent, uid, gid, AccessMode.EXECUTE)
        if op in ("read", "readdir"):
            return self._check(path, uid, gid, AccessMode.READ)
        if op in ("write", "setattr", "chmod", "fsync"):
            return self._check(path, uid, gid, AccessMode.WRITE)
        raise ValueError(f"unknown operation {op!r}")

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

    def cost_items(self) -> Tuple[int, int]:
        """(normal checks, special list length) — for the cost model."""
        return 1, len(self._special)
