"""Key-value substrates.

Two families, mirroring the paper's two storage technologies:

* :mod:`repro.kvstore.memkv` + :mod:`repro.kvstore.dht` — a Memcached-class
  in-memory KV with CAS versioning, sharded across nodes by a consistent
  hash ring.  This is Pacon's distributed metadata cache substrate.
* :mod:`repro.kvstore.lsm` (with :mod:`~repro.kvstore.sstable` and
  :mod:`~repro.kvstore.bloom`) — a LevelDB-class log-structured merge
  tree.  This is the IndexFS baseline's metadata backend; its write-ahead
  log is a cost constant the IndexFS server charges, not a structure.

All stores here are *functional* (pure data structures, no simulated time);
the DES actors that wrap them charge time per operation using the
operation receipts the stores return (e.g. how many SSTables a get probed).
"""

from repro.kvstore.memkv import CasMismatch, Item, KeyExists, MemKV
from repro.kvstore.dht import ConsistentHashRing
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.sstable import SSTable
from repro.kvstore.lsm import LSMTree, ReadReceipt

__all__ = [
    "BloomFilter",
    "CasMismatch",
    "ConsistentHashRing",
    "Item",
    "KeyExists",
    "LSMTree",
    "MemKV",
    "ReadReceipt",
    "SSTable",
]
