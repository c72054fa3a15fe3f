"""Key placement: a consistent hashing ring.

Pacon "uses full path as the key to store the metadata, and distributes
them in the distributed cache by DHT" (§III.A).  The consistent-hash ring
with virtual nodes is the classic Memcached-client placement algorithm:
deterministic, balanced, and with minimal key movement when the membership
changes (which matters when consistent regions grow/shrink with the
application's node allocation).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Generic, List, Optional, Sequence, TypeVar

__all__ = ["ConsistentHashRing", "stable_hash64"]

N = TypeVar("N")

#: Virtual nodes per member (per unit of weight) on the ring.
VNODES = 64


def stable_hash64(data: str) -> int:
    """Process-invariant 64-bit hash (md5-based, like libmemcached ketama)."""
    digest = hashlib.md5(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class ConsistentHashRing(Generic[N]):
    """Ketama-style consistent hashing with virtual nodes."""

    def __init__(self):
        self._ring: List[int] = []          # sorted vnode hashes
        self._owners: Dict[int, N] = {}     # vnode hash -> member
        self._members: List[N] = []
        #: key -> member until the membership next changes, so a path is
        #: hashed once, not once per cache verb.  Holds one entry per
        #: distinct key looked up since that change.
        self._memo: Dict[str, N] = {}
        #: ``id(member) -> _member_key(member)`` for every member on the
        #: ring, so a counted lookup does not rebuild its label.
        self._labels: Dict[int, str] = {}
        # Per-member lookup counts, opt-in (None = off, the default, so
        # the placement hot path stays one dict hit).  Keyed by the
        # member's stable string identity for export-ready snapshots.
        self._lookup_counts: Optional[Dict[str, int]] = None

    # -- membership --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> Sequence[N]:
        return tuple(self._members)

    def add(self, member: N, weight: int = 1) -> None:
        if member in self._members:
            raise ValueError(f"member already on ring: {member!r}")
        self._members.append(member)
        self._labels[id(member)] = label = _member_key(member)
        for v in range(VNODES * weight):
            h = stable_hash64(f"{label}#{v}")
            while h in self._owners:  # vanishing-probability collision
                h = (h + 1) % (1 << 64)
            self._owners[h] = member
            bisect.insort(self._ring, h)
        self._memo.clear()

    def remove(self, member: N) -> None:
        if member not in self._members:
            raise KeyError(f"member not on ring: {member!r}")
        stored = self._members.pop(self._members.index(member))
        del self._labels[id(stored)]
        dead = [h for h, m in self._owners.items() if m == member]
        for h in dead:
            del self._owners[h]
        self._ring = sorted(self._owners)
        self._memo.clear()

    # -- lookup --------------------------------------------------------------
    def lookup(self, key: str) -> N:
        owner = self._memo.get(key)
        if owner is None:
            if not self._ring:
                raise LookupError("empty hash ring")
            idx = bisect.bisect_right(self._ring, stable_hash64(key))
            if idx == len(self._ring):
                idx = 0
            owner = self._memo[key] = self._owners[self._ring[idx]]
        # Counted on a memo hit too: the count is of lookups, not hashes.
        counts = self._lookup_counts
        if counts is not None:
            label = self._labels[id(owner)]
            counts[label] = counts.get(label, 0) + 1
        return owner

    # -- lookup statistics (observability; see MetricsHub.attach_region) ----
    def enable_lookup_stats(self) -> None:
        """Start counting which member serves each lookup (idempotent)."""
        if self._lookup_counts is None:
            self._lookup_counts = {}

    def lookup_counts(self) -> Dict[str, int]:
        """Per-member lookup counts since enabling; {} when disabled."""
        return dict(self._lookup_counts or {})

    def distribution(self, keys: Sequence[str]) -> Dict[N, int]:
        """Placement histogram over ``keys`` (used by balance tests)."""
        counts: Dict[N, int] = {m: 0 for m in self._members}
        for k in keys:
            counts[self.lookup(k)] += 1
        return counts


def _member_key(member) -> str:
    """A stable string identity for ring placement."""
    for attr in ("name", "node_id"):
        val = getattr(member, attr, None)
        if val is not None:
            return f"{type(member).__name__}:{val}"
    return repr(member)
