"""Distributed cache space management (§III.F).

Metadata is small, so cache pressure is rare; the paper deliberately uses a
*simple* policy rather than LRU bookkeeping: when usage crosses a
threshold, pick one entry (file or directory) directly under the region
root — round-robin, so consecutive evictions pick different entries — and
evict the cached metadata of/under it.

Two safety rules the paper implies and we enforce explicitly:

* only entries whose operations have **committed** to the DFS may be
  dropped (the DFS backup copy must exist before the primary copy goes),
* inline small-file data that is not yet on the DFS is flushed before its
  record is evicted.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.dfs.errors import FileExists
from repro.sim.core import Event

__all__ = ["EvictionManager", "HIGH_WATERMARK", "TARGET"]

#: Eviction trips when a shard's usage crosses the high watermark and
#: frees entries until usage falls to the target (§III.F).
HIGH_WATERMARK = 0.90
TARGET = 0.70


class EvictionManager:
    """Round-robin evictor for one consistent region."""

    def __init__(self, region, node, dfs_client):
        self.region = region
        self.node = node
        self.env = region.env
        self.dfs_client = dfs_client
        self._rr_index = 0  # next top-level entry to consider
        # stats
        self.evictions = 0
        self.entries_evicted = 0
        self.flushes = 0
        self.skipped_uncommitted = 0

    # -- pressure detection ------------------------------------------------
    def pressured_shards(self) -> List:
        return [s for s in self.region.shards
                if s.kv.usage_fraction() >= HIGH_WATERMARK]

    def under_pressure(self) -> bool:
        return bool(self.pressured_shards())

    # -- policy ----------------------------------------------------------------
    def _top_level_entries(self) -> Generator[Event, Any, List[str]]:
        """Current entries directly under the region root (cache view)."""
        ws = self.region.workspace
        found = yield from self.region.cache.scan_subtree(self.node, ws)
        tops = sorted({self._top_of(path) for path, _ in found})
        return tops

    def _top_of(self, path: str) -> str:
        ws = self.region.workspace
        rest = path[len(ws):].lstrip("/")
        first = rest.split("/", 1)[0]
        return f"{ws.rstrip('/')}/{first}"

    def evict_once(self) -> Generator[Event, Any, int]:
        """One eviction round: drop the metadata under the next RR entry.

        Returns the number of cache entries removed.  Entries that are not
        yet committed are skipped (and counted), which also rotates the RR
        cursor past them — mitigating thrash, as §III.F intends.
        """
        tops = yield from self._top_level_entries()
        if not tops:
            return 0
        for attempt in range(len(tops)):
            victim = tops[self._rr_index % len(tops)]
            self._rr_index += 1
            removed = yield from self._evict_entry(victim)
            if removed > 0:
                self.evictions += 1
                self.entries_evicted += removed
                return removed
        return 0

    def _evict_entry(self, top_path: str) -> Generator[Event, Any, int]:
        """Evict ``top_path`` and everything cached under it, if safe."""
        cache = self.region.cache
        subtree = yield from cache.scan_subtree(self.node, top_path)
        own = yield from cache.get(self.node, top_path)
        candidates: List[Tuple[str, Dict]] = list(subtree)
        if own is not None:
            candidates.append((top_path, own))
        removed = 0
        for path, record in candidates:
            if not record.get("committed") or record.get("deleted"):
                # Backup copy not in place yet — unsafe to drop.
                self.skipped_uncommitted += 1
                continue
            if (record.get("inline_data") and not record.get("large")
                    and not record.get("shadow")):
                # Flush inline bytes so the DFS copy is complete.
                yield from self._flush_inline(path, record)
                self.flushes += 1
            existed = yield from cache.delete(self.node, path)
            if existed:
                removed += 1
        return removed

    def _flush_inline(self, path: str,
                      record: Dict) -> Generator[Event, Any, None]:
        size = record.get("size", 0)
        if size <= 0:
            return
        try:
            yield from self.dfs_client.write(path, 0, size)
        except FileExists:  # pragma: no cover - defensive
            pass

    # -- background loop ----------------------------------------------------------
    def run(self, poll_interval: float = 1e-3) -> Generator[Event, Any, None]:
        """Background process: watch usage, evict to the target watermark."""
        while True:
            yield poll_interval
            while self.under_pressure():
                removed = yield from self.evict_once()
                if removed == 0:
                    break  # nothing evictable right now
                if all(s.kv.usage_fraction() <= TARGET
                       for s in self.region.shards):
                    break
