"""Bloom filter for SSTable negative lookups.

LevelDB attaches a bloom filter per table so that a ``get`` for an absent
key usually skips the table without touching disk.  The IndexFS baseline's
read costs depend on this behaviour (a stat that misses every level pays
only bloom checks, not table reads), so the filter is real: k hash
functions via standard double hashing over two 64-bit seeds.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

__all__ = ["BloomFilter"]


class BloomFilter:
    """Fixed-size bloom filter sized for a target false-positive rate."""

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items < 1:
            expected_items = 1
        if not (0.0 < fp_rate < 1.0):
            raise ValueError(f"fp_rate must be in (0,1), got {fp_rate}")
        self.expected_items = expected_items
        self.fp_rate = fp_rate
        # Standard sizing formulas.
        self.num_bits = max(
            8, int(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)))
        self.num_hashes = max(
            1, int(round(self.num_bits / expected_items * math.log(2))))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.items_added = 0

    def _positions(self, key: str) -> Iterable[int]:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: str) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.items_added += 1

    def might_contain(self, key: str) -> bool:
        for pos in self._positions(key):
            if not (self._bits[pos >> 3] >> (pos & 7)) & 1:
                return False
        return True

    def __contains__(self, key: str) -> bool:
        return self.might_contain(key)

    def fill_ratio(self) -> float:
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits
