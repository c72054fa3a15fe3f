"""Data servers: striped chunk storage with NVMe-class cost modeling.

The paper's BeeGFS cluster has 3 data servers; file contents are striped
across them in fixed-size chunks.  MADbench2 (Fig. 12) is the experiment
that exercises this path — its 4 MB reads/writes dwarf metadata time,
which is why Pacon and BeeGFS tie there.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.sim.core import Event
from repro.sim.network import Cluster, Node, Service

__all__ = ["DataServer", "stripe_ranges"]


def stripe_ranges(offset: int, length: int,
                  stripe_size: int) -> List[Tuple[int, int, int]]:
    """Split [offset, offset+length) into (chunk_index, chunk_offset, size).

    Chunk ``i`` covers bytes [i*stripe_size, (i+1)*stripe_size).
    """
    if length < 0:
        raise ValueError(f"negative length: {length}")
    out: List[Tuple[int, int, int]] = []
    end = offset + length
    pos = offset
    while pos < end:
        chunk = pos // stripe_size
        chunk_off = pos - chunk * stripe_size
        take = min(stripe_size - chunk_off, end - pos)
        out.append((chunk, chunk_off, take))
        pos += take
    return out


class DataServer(Service):
    """Chunk store: (ino, chunk_index) -> bytes-held count.

    Contents are tracked as sizes (the experiments are I/O-shaped, not
    byte-exact), but offsets and chunk boundaries are honoured so read
    validity can be asserted in tests.
    """

    def __init__(self, cluster: Cluster, node: Node, name: str = "data"):
        super().__init__(cluster, node, name,
                         workers=cluster.costs.dataserver_workers)
        self._chunks: Dict[Tuple[int, int], int] = {}  # -> valid bytes
        self.bytes_written = 0
        self.bytes_read = 0

    def handle_write_chunk(self, ino: int, chunk: int, chunk_off: int,
                           size: int) -> Generator[Event, Any, int]:
        yield self.costs.disk_seek + self.costs.disk_transfer_time(size)
        key = (ino, chunk)
        self._chunks[key] = max(self._chunks.get(key, 0), chunk_off + size)
        self.bytes_written += size
        return size

    def handle_read_chunk(self, ino: int, chunk: int, chunk_off: int,
                          size: int) -> Generator[Event, Any, int]:
        yield self.costs.disk_seek + self.costs.disk_transfer_time(size)
        valid = self._chunks.get((ino, chunk), 0)
        available = max(0, min(chunk_off + size, valid) - chunk_off)
        self.bytes_read += available
        return available

    def stored_bytes(self, ino: int) -> int:
        """Total valid bytes held for an inode (test introspection)."""
        return sum(v for (i, _c), v in self._chunks.items() if i == ino)
