"""Memcached-equivalent in-memory KV store.

Implements the slice of the Memcached contract Pacon depends on (§III.D.3):

* ``get``/``set``/``add``/``delete`` with per-item version numbers,
* ``gets`` returning ``(value, cas_token)`` and ``cas`` compare-and-swap —
  the lock-free concurrent-update primitive Pacon uses for metadata and
  inline small-file data,
* memory accounting with a configurable capacity so eviction policies can
  be driven by real usage numbers (§III.F).

There is deliberately **no LRU inside the store**: the paper's eviction is
Pacon's own round-robin-over-region-roots policy, so the store exposes
usage and lets the owner decide.  ``scan_prefix`` exists for recursive
directory removal and for cache rebuild after failure; real Memcached has
no scan, which is exactly why the paper routes ``readdir`` to the DFS
instead of the cache — our IndexFS/Pacon actors charge a full-table-scan
cost if they ever use it on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = ["MemKV", "Item", "CasMismatch", "KeyExists", "CapacityExceeded"]


class CasMismatch(Exception):
    """CAS token did not match the item's current version."""


class KeyExists(Exception):
    """``add`` on a key that already exists."""


class CapacityExceeded(Exception):
    """Store is full and the owner has not freed space."""


#: Footprint of the fixed-size scalars, by exact type.
_SCALAR_SIZE = {type(None): 8, int: 16, float: 16, bool: 16}


def _sizeof(value: Any) -> int:
    """Approximate in-cache footprint of a value, in bytes."""
    if type(value) is dict:
        # The hot case — a flat metadata record on every set/add/cas —
        # sized in one pass: str keys by one encode of their join,
        # scalars by table, bytes (a file record's ``inline_data``) and
        # ASCII strings by length, anything else (and every other
        # top-level value) by the general rule below.
        try:
            size = 64 + len("".join(value).encode("utf-8"))
        except TypeError:  # a key that is not a str
            return 64 + sum(_sizeof(k) + _sizeof(v)
                            for k, v in value.items())
        scalar_size = _SCALAR_SIZE.get
        for item in value.values():
            kind = type(item)
            item_size = scalar_size(kind)
            if item_size is None:
                item_size = (len(item) if kind is bytes or kind is str
                             and item.isascii() else _sizeof(item))
            size += item_size
        return size
    if value is None:
        return 8
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (int, float, bool)):
        return 16
    if isinstance(value, dict):
        return 64 + sum(_sizeof(k) + _sizeof(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 32 + sum(_sizeof(v) for v in value)
    return 64  # opaque object


@dataclass(slots=True)
class Item:
    """A stored value plus its CAS version and accounting size."""

    value: Any
    version: int
    size: int
    flags: int = 0


class MemKV:
    """A single in-memory KV shard with CAS semantics."""

    def __init__(self, capacity_bytes: int = 512 * 1024 * 1024,
                 name: str = ""):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._items: Dict[str, Item] = {}
        self._used_bytes = 0
        self._version_clock = 0
        # stats
        self.hits = 0
        self.misses = 0
        self.sets = 0
        self.deletes = 0
        self.cas_failures = 0

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def usage_fraction(self) -> float:
        if self.capacity_bytes <= 0:
            return 0.0
        return self._used_bytes / self.capacity_bytes

    # -- core ops ----------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        item = self._items.get(key)
        if item is None:
            self.misses += 1
            return None
        self.hits += 1
        return item.value

    def gets(self, key: str) -> Optional[Tuple[Any, int]]:
        """Return ``(value, cas_token)`` or None — Memcached's ``gets``."""
        item = self._items.get(key)
        if item is None:
            self.misses += 1
            return None
        self.hits += 1
        return item.value, item.version

    def _store(self, key: str, value: Any, flags: int,
               old: Optional[Item]) -> int:
        """The one store tail behind ``set``/``add``/``cas``: size the
        entry, check capacity for the delta over ``old``, mint a version."""
        size = ((len(key) if key.isascii() else len(key.encode("utf-8")))
                + _sizeof(value) + 48)  # item overhead
        delta = size - (old.size if old else 0)
        if self._used_bytes + delta > self.capacity_bytes:
            raise CapacityExceeded(
                f"{self.name or 'memkv'}: storing {key!r} needs {delta}B, "
                f"used {self._used_bytes}/{self.capacity_bytes}")
        self._used_bytes += delta
        self._version_clock = version = self._version_clock + 1
        self._items[key] = Item(value=value, version=version, size=size,
                                flags=flags)
        self.sets += 1
        return version

    def set(self, key: str, value: Any, flags: int = 0) -> int:
        """Unconditional store; returns the new CAS token."""
        return self._store(key, value, flags, self._items.get(key))

    def add(self, key: str, value: Any, flags: int = 0) -> int:
        """Store only if absent (Memcached ``add``)."""
        if key in self._items:
            raise KeyExists(key)
        return self.set(key, value, flags=flags)

    def cas(self, key: str, value: Any, cas_token: int,
            flags: int = 0) -> int:
        """Compare-and-swap: store only if the version still matches.

        This is the primitive behind §III.D.3 ("we do not use locks, but
        use the CAS interface of Memcached").  Returns the new token.
        """
        item = self._items.get(key)
        if item is None or item.version != cas_token:
            self.cas_failures += 1
            raise CasMismatch(key)
        return self._store(key, value, flags, item)

    def delete(self, key: str) -> bool:
        item = self._items.pop(key, None)
        if item is None:
            return False
        self._used_bytes -= item.size
        self.deletes += 1
        return True

    # -- scans (cold-path only; see module docstring) ---------------------
    def scan_prefix(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """Yield ``(key, value)`` for keys starting with ``prefix``.

        O(n) over the whole shard — callers must treat this as a
        full-table scan and charge accordingly.
        """
        for key, item in list(self._items.items()):
            if key.startswith(prefix):
                yield key, item.value

    def keys(self) -> Iterator[str]:
        return iter(list(self._items.keys()))

    def flush_all(self) -> None:
        self._items.clear()
        self._used_bytes = 0
