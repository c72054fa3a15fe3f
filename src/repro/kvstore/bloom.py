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
from typing import Tuple

__all__ = ["BloomFilter"]

#: The false-positive rate every filter is sized for (LevelDB's 10 bits
#: per key give about 1 %).
FP_RATE = 0.01


def _seeds(key: str) -> Tuple[int, int]:
    """The two 64-bit seeds of ``key``'s double hashing: position ``i``
    is ``(h1 + i * h2) % num_bits``, computed in place by the callers."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:16], "little") | 1)


class BloomFilter:
    """Fixed-size bloom filter sized for a target false-positive rate."""

    def __init__(self, expected_items: int):
        if expected_items < 1:
            expected_items = 1
        self.expected_items = expected_items
        # Standard sizing formulas.
        self.num_bits = max(
            8, int(-expected_items * math.log(FP_RATE) / (math.log(2) ** 2)))
        self.num_hashes = max(
            1, int(round(self.num_bits / expected_items * math.log(2))))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.items_added = 0

    def add(self, key: str) -> None:
        h1, h2 = _seeds(key)
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
        self.items_added += 1

    def might_contain(self, key: str) -> bool:
        h1, h2 = _seeds(key)
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            if not (bits[pos >> 3] >> (pos & 7)) & 1:
                return False
        return True

    def __contains__(self, key: str) -> bool:
        return self.might_contain(key)

    def fill_ratio(self) -> float:
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits
