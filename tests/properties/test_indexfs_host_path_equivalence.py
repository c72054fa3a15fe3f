"""Property: the IndexFS host path computes what its plainer form did.

Three pieces of the IndexFS op path are written for host speed, and each
must give exactly the result of the straightforward form it stands for:

* placement takes each directory's md5 once and keeps it, where the
  plain form hashes the directory afresh per call -- the owner and the
  probe chain agree across GIGA+ splits;
* a handler yields its LSM charge straight from a cost function, where
  the plain form delegated to a charging generator -- the yielded float
  is bit-identical for any receipt and cost model;
* the bloom filter computes its double-hashing positions in place, where
  the plain form drew them from a generator -- the same bits are set and
  the same keys pass.
"""

import hashlib
from typing import Iterator, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import indexfs
from repro.baselines.indexfs import IndexFS
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.dht import stable_hash64
from repro.kvstore.lsm import ReadReceipt, WriteReceipt
from repro.sim.costs import CostModel
from repro.sim.network import Cluster

# -- placement ----------------------------------------------------------------


def _fresh_server_for_entry(fs, dir_path, name, nparts):
    bucket = stable_hash64(name) % nparts
    return fs.servers[(stable_hash64(dir_path) + bucket) % len(fs.servers)]


def _fresh_probe_chain(fs, dir_path, name) -> List:
    chain: List = []
    nparts = fs.dir_partitions.get(dir_path, 1)
    while True:
        server = _fresh_server_for_entry(fs, dir_path, name, nparts)
        if server not in chain:
            chain.append(server)
        if nparts == 1:
            return chain
        nparts //= 2


def _assert_placement_matches(fs, dirs, names):
    for dir_path in dirs:
        for name in names:
            path = dir_path.rstrip("/") + "/" + name
            nparts = fs.dir_partitions.get(dir_path, 1)
            assert fs.server_for(path) is _fresh_server_for_entry(
                fs, dir_path, name, nparts)
            assert fs.probe_chain(path) == _fresh_probe_chain(
                fs, dir_path, name)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.lists(st.text("abcxyz0123", min_size=1, max_size=6),
                min_size=1, max_size=8, unique=True))
def test_memoized_directory_hash_places_like_fresh_hashes(n_servers, names):
    cluster = Cluster(seed=1)
    nodes = [cluster.add_node(f"n{i}") for i in range(n_servers)]
    fs = IndexFS(cluster, nodes)
    dirs = ["/", "/d", "/d/e"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indexfs, "SPLIT_THRESHOLD", 4)
        for path in dirs[1:]:
            fs.admin_mkdir(path)
        _assert_placement_matches(fs, dirs, names)
        # Fill every directory past several GIGA+ splits, checking after
        # each insert: a split changes the partition count, never the
        # dir hash.
        for i in range(40):
            for dir_path in dirs:
                fs.admin_mkdir(dir_path.rstrip("/") + f"/s{i}")
            _assert_placement_matches(fs, dirs, names)
    # Each directory doubled until it spans every server.
    assert fs.splits == len(dirs) * (n_servers - 1).bit_length()


# -- handler charges ----------------------------------------------------------


def _old_read_charge(c: CostModel, receipt: ReadReceipt) -> float:
    cost = c.indexfs_op_cpu + c.lsm_memtable_op
    cost += c.lsm_bloom_check * receipt.bloom_checks
    cost += c.lsm_sstable_read * receipt.tables_probed
    return cost


def _old_write_charge(c: CostModel, receipt: WriteReceipt) -> float:
    cost = c.indexfs_op_cpu + c.lsm_memtable_op
    cost += c.lsm_wal_append
    cost += c.lsm_flush_per_entry * receipt.flushed_entries
    cost += c.lsm_compact_per_entry * receipt.compacted_entries
    return cost


class _ScriptedLSM:
    """Stands in for a server's tree: answers with the receipts given."""

    def __init__(self, read: ReadReceipt, write: WriteReceipt):
        self.read, self.write = read, write

    def get(self, key):
        return self.read

    def put(self, key, value):
        return self.write

    def delete(self, key):
        return self.write


_costs = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False,
                   allow_subnormal=False)
_counts = st.integers(min_value=0, max_value=5000)


def _charges(handler) -> List[float]:
    """Every float ``handler`` yields, driven to completion."""
    out = []
    try:
        while True:
            out.append(next(handler))
    except StopIteration:
        return out


@settings(max_examples=200, deadline=None)
@given(_costs, _costs, _costs, _costs, _costs, _costs, _costs,
       _counts, _counts, _counts, _counts)
def test_handlers_yield_the_old_charge(op_cpu, memtable, bloom, sstable, wal,
                                       flush, compact, bloom_checks,
                                       tables_probed, flushed, compacted):
    costs = CostModel().with_overrides(
        indexfs_op_cpu=op_cpu, lsm_memtable_op=memtable,
        lsm_bloom_check=bloom, lsm_sstable_read=sstable,
        lsm_wal_append=wal, lsm_flush_per_entry=flush,
        lsm_compact_per_entry=compact)
    cluster = Cluster(costs=costs, seed=1)
    fs = IndexFS(cluster, [cluster.add_node("n0")])
    fs.admin_mkdir("/d")
    server = fs.servers[0]
    write = WriteReceipt(flushed, compacted)
    read_cost = _old_read_charge(costs, ReadReceipt(
        True, {"ftype": "file"}, bloom_checks=bloom_checks,
        tables_probed=tables_probed))
    sync_cost = _old_write_charge(costs, write)

    def scripted(found, ftype):
        server.lsm = _ScriptedLSM(
            ReadReceipt(found, {"ftype": ftype} if found else None,
                        bloom_checks=bloom_checks,
                        tables_probed=tables_probed), write)

    scripted(True, "file")
    assert _charges(server.handle_lookup("/d/f")) == [read_cost]
    assert _charges(server.handle_unlink("/d/f", 0, 0)) == [read_cost,
                                                             sync_cost]
    scripted(False, None)
    assert _charges(server.handle_create("/d/g", "file", 0o644, 0, 0)) == [
        read_cost, sync_cost]


# -- bloom positions ----------------------------------------------------------


def _generator_positions(bloom: BloomFilter, key: str) -> Iterator[int]:
    digest = hashlib.md5(key.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1
    for i in range(bloom.num_hashes):
        yield (h1 + i * h2) % bloom.num_bits


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.lists(st.text(min_size=0, max_size=12), min_size=1, max_size=60),
       st.lists(st.text(min_size=0, max_size=12), max_size=60))
def test_inline_bloom_positions_set_the_generator_bits(expected, keys,
                                                       probes):
    bloom = BloomFilter(expected)
    bits = bytearray(len(bloom._bits))
    for key in keys:
        bloom.add(key)
        for pos in _generator_positions(bloom, key):
            bits[pos >> 3] |= 1 << (pos & 7)
    assert bloom._bits == bits
    for key in keys + probes:
        assert bloom.might_contain(key) == all(
            (bits[pos >> 3] >> (pos & 7)) & 1
            for pos in _generator_positions(bloom, key))
