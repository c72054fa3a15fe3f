"""LevelDB-class log-structured merge tree.

The IndexFS baseline keeps all file-system metadata in LevelDB tables
(paper §II.B); this module is that backend, built from the repo's own
SSTable and bloom-filter parts:

* writes go to an in-memory memtable (LevelDB's write-ahead log is not a
  structure here: the IndexFS server charges its append as a cost
  constant, ``CostModel.lsm_wal_append``),
* a full memtable flushes to a new level-0 table (L0 tables overlap),
* when L0 grows past a threshold, L0+L1 compact into a fresh sorted L1
  (tombstones dropped at the bottom),
* reads probe memtable → L0 newest-first → L1, pruned by key range and
  bloom filters.

Every read returns a :class:`ReadReceipt` describing the physical work
performed (memtable hit? how many bloom checks? how many table probes?) so
the DES actor wrapping the tree can charge honest simulated time — that
receipt is where IndexFS's depth-dependent stat costs in Figs. 2/9 come
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.kvstore.sstable import SSTable, TOMBSTONE, merge_tables

__all__ = ["LSMTree", "ReadReceipt", "WriteReceipt"]


@dataclass(slots=True)
class ReadReceipt:
    """Physical work done by one point lookup."""

    found: bool
    value: Any = None
    memtable_hit: bool = False
    bloom_checks: int = 0
    tables_probed: int = 0


@dataclass(frozen=True, slots=True)
class WriteReceipt:
    """Physical work done by one write (flush/compaction amortized)."""

    flushed_entries: int = 0
    compacted_entries: int = 0


#: What every write that fills no memtable returns: one shared receipt.
_NOTHING_FLUSHED = WriteReceipt()


class LSMTree:
    """A two-level (L0 tiered / L1 leveled) LSM tree."""

    def __init__(self, memtable_limit: int = 4096, l0_limit: int = 4,
                 name: str = ""):
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        self.name = name
        self.memtable_limit = memtable_limit
        self.l0_limit = l0_limit
        self._memtable: Dict[str, Any] = {}
        self._l0: List[SSTable] = []  # newest first
        self._l1: Optional[SSTable] = None
        # stats
        self.puts = 0
        self.gets = 0
        self.flushes = 0
        self.compactions = 0
        self.entries_flushed = 0
        self.entries_compacted = 0

    # -- write path --------------------------------------------------------
    def put(self, key: str, value: Any) -> WriteReceipt:
        self.puts += 1
        self._memtable[key] = value
        return self._maybe_flush()

    def delete(self, key: str) -> WriteReceipt:
        self.puts += 1
        self._memtable[key] = TOMBSTONE
        return self._maybe_flush()

    def put_batch(self, items: List[Tuple[str, Any]]) -> WriteReceipt:
        """Bulk insertion: the whole batch lands in one write.

        This is the primitive behind IndexFS "bulk insertion" (and hence
        BatchFS/DeltaFS): clients buffer inserts and merge them in batches.
        """
        self._memtable.update(items)
        self.puts += len(items)
        return self._maybe_flush()

    def _maybe_flush(self) -> WriteReceipt:
        if len(self._memtable) < self.memtable_limit:
            return _NOTHING_FLUSHED
        flushed = self.flush()
        if len(self._l0) > self.l0_limit:
            return WriteReceipt(flushed, self.compact())
        return WriteReceipt(flushed)

    def flush(self) -> int:
        """Write the memtable out as a new L0 table."""
        if not self._memtable:
            return 0
        table = SSTable(list(self._memtable.items()))
        self._l0.insert(0, table)
        count = len(self._memtable)
        self._memtable.clear()
        self.flushes += 1
        self.entries_flushed += count
        return count

    def compact(self) -> int:
        """Merge all of L0 (+ existing L1) into a fresh L1."""
        sources = list(self._l0)
        if self._l1 is not None:
            sources.append(self._l1)  # oldest, lowest precedence
        if not sources:
            return 0
        merged = merge_tables(sources, drop_tombstones=True)
        self._l1 = SSTable(merged)
        self._l0.clear()
        self.compactions += 1
        self.entries_compacted += len(merged)
        return len(merged)

    # -- read path ---------------------------------------------------------
    def get(self, key: str) -> ReadReceipt:
        self.gets += 1
        if key in self._memtable:
            value = self._memtable[key]
            if value is TOMBSTONE:
                return ReadReceipt(found=False, memtable_hit=True)
            return ReadReceipt(found=True, value=value, memtable_hit=True)
        bloom_checks = 0
        tables_probed = 0
        for table in self._l0:
            bloom_checks += 1
            if not table.might_contain(key):
                continue
            tables_probed += 1
            found, value = table.get(key)
            if found:
                if value is TOMBSTONE:
                    return ReadReceipt(False, bloom_checks=bloom_checks,
                                       tables_probed=tables_probed)
                return ReadReceipt(True, value=value,
                                   bloom_checks=bloom_checks,
                                   tables_probed=tables_probed)
        if self._l1 is not None:
            bloom_checks += 1
            if self._l1.might_contain(key):
                tables_probed += 1
                found, value = self._l1.get(key)
                if found and value is not TOMBSTONE:
                    return ReadReceipt(True, value=value,
                                       bloom_checks=bloom_checks,
                                       tables_probed=tables_probed)
        return ReadReceipt(False, bloom_checks=bloom_checks,
                           tables_probed=tables_probed)

    def scan_prefix(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """Merged iteration over all keys with the given prefix.

        IndexFS readdir is a prefix scan over the directory's partition.
        """
        end = prefix + "￿"
        merged: Dict[str, Any] = {}
        if self._l1 is not None:
            for k, v in self._l1.range(prefix, end):
                merged[k] = v
        for table in reversed(self._l0):  # oldest first
            for k, v in table.range(prefix, end):
                merged[k] = v
        for k, v in self._memtable.items():
            if k.startswith(prefix):
                merged[k] = v
        for k in sorted(merged):
            v = merged[k]
            if v is not TOMBSTONE:
                yield k, v

    # -- introspection --------------------------------------------------------
    @property
    def memtable_size(self) -> int:
        return len(self._memtable)

    @property
    def l0_tables(self) -> int:
        return len(self._l0)

    @property
    def l1_entries(self) -> int:
        return len(self._l1) if self._l1 is not None else 0

    def total_live_keys(self) -> int:
        return sum(1 for _ in self.scan_prefix(""))

    def stats(self) -> Dict[str, int]:
        return {
            "puts": self.puts,
            "gets": self.gets,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "memtable": len(self._memtable),
            "l0_tables": len(self._l0),
            "l1_entries": self.l1_entries,
        }
