"""Write-ahead log for the LSM tree.

Models LevelDB's log file at the level the reproduction needs: records are
appended (buffered), become durable on ``sync``, and a crash loses exactly
the unsynced tail.  ``auto_sync`` reproduces the synchronous-write
configuration; IndexFS-style bulk insertion runs with it off and syncs in
batches.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

__all__ = ["WriteAheadLog"]

Record = Tuple[str, str, Any]  # (op, key, value)


class WriteAheadLog:
    """An append-only, truncatable log with an explicit durability point."""

    def __init__(self, auto_sync: bool = False, name: str = ""):
        self.name = name
        self.auto_sync = auto_sync
        self._records: List[Record] = []
        self._durable = 0  # records [0:_durable] survive a crash
        self.appends = 0
        self.syncs = 0
        self.bytes_written = 0

    def __len__(self) -> int:
        return len(self._records)

    def append(self, op: str, key: str, value: Any = None) -> None:
        self._records.append((op, key, value))
        self.appends += 1
        self.bytes_written += 24 + len(key)
        if self.auto_sync:
            self.sync()

    def sync(self) -> int:
        """Make all buffered records durable; return how many were synced."""
        newly = len(self._records) - self._durable
        self._durable = len(self._records)
        if newly:
            self.syncs += 1
        return newly

    def crash(self) -> int:
        """Drop the unsynced tail (simulated power loss); return count lost."""
        lost = len(self._records) - self._durable
        del self._records[self._durable:]
        return lost

    def replay(self) -> Iterator[Record]:
        """Yield durable records in append order (recovery path)."""
        return iter(self._records[: self._durable])

    def truncate(self) -> None:
        """Discard the log after a successful memtable flush."""
        self._records.clear()
        self._durable = 0
