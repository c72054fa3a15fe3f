"""Immutable sorted string table (SSTable) with a bloom filter.

Mirrors the LevelDB on-disk table at the semantic level: sorted immutable
key/value pairs, binary-search point lookups, key-range metadata for level
pruning, and a bloom filter for cheap negative answers.  Values may be the
shared :data:`TOMBSTONE` sentinel (deletion markers survive until the
bottom-level compaction drops them).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.kvstore.bloom import BloomFilter

__all__ = ["SSTable", "TOMBSTONE", "merge_tables"]


class _Tombstone:
    """Singleton deletion marker."""

    _instance: Optional["_Tombstone"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


TOMBSTONE = _Tombstone()

_seq = itertools.count()


class SSTable:
    """Immutable sorted table built from (key, value) pairs."""

    def __init__(self, items: Sequence[Tuple[str, Any]]):
        pairs = sorted(items, key=lambda kv: kv[0])
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise ValueError(f"duplicate key in SSTable build: {a!r}")
        self._keys: List[str] = [k for k, _ in pairs]
        self._values: List[Any] = [v for _, v in pairs]
        self.table_id = next(_seq)
        self.bloom = BloomFilter(max(len(self._keys), 1))
        for k in self._keys:
            self.bloom.add(k)
        self.reads = 0

    def __len__(self) -> int:
        return len(self._keys)

    def key_in_range(self, key: str) -> bool:
        if not self._keys:
            return False
        return self._keys[0] <= key <= self._keys[-1]

    def might_contain(self, key: str) -> bool:
        """Range + bloom pre-check; false means definitely absent."""
        return self.key_in_range(key) and self.bloom.might_contain(key)

    def get(self, key: str) -> Tuple[bool, Any]:
        """Binary-search lookup. Returns (found, value)."""
        self.reads += 1
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return True, self._values[idx]
        return False, None

    def items(self) -> Iterator[Tuple[str, Any]]:
        return zip(self._keys, self._values)

    def range(self, start: str, end: str) -> Iterator[Tuple[str, Any]]:
        """Yield pairs with start <= key < end."""
        lo = bisect.bisect_left(self._keys, start)
        hi = bisect.bisect_left(self._keys, end)
        for i in range(lo, hi):
            yield self._keys[i], self._values[i]


def merge_tables(tables: Sequence[SSTable],
                 drop_tombstones: bool = False) -> List[Tuple[str, Any]]:
    """K-way merge, newest-first precedence.

    ``tables[0]`` is the newest; for duplicate keys its value wins.  With
    ``drop_tombstones`` (bottom-level compaction) deletion markers are
    removed from the output entirely.
    """
    merged: dict = {}
    for table in reversed(tables):  # oldest first; newer overwrites
        for k, v in table.items():
            merged[k] = v
    out = sorted(merged.items())
    if drop_tombstones:
        out = [(k, v) for k, v in out if v is not TOMBSTONE]
    return out
