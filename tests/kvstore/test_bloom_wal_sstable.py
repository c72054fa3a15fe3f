"""Unit tests for BloomFilter and SSTable."""

import pytest

from repro.kvstore.bloom import BloomFilter
from repro.kvstore.sstable import SSTable, TOMBSTONE, merge_tables


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(expected_items=1000)
        keys = [f"/dir/file{i}" for i in range(1000)]
        for k in keys:
            bf.add(k)
        assert all(bf.might_contain(k) for k in keys)

    def test_false_positive_rate_in_band(self):
        bf = BloomFilter(expected_items=2000)
        for i in range(2000):
            bf.add(f"/present/{i}")
        fps = sum(bf.might_contain(f"/absent/{i}") for i in range(10000))
        assert fps / 10000 < 0.05  # generous bound over the 1% target

    def test_contains_operator(self):
        bf = BloomFilter(100)
        bf.add("/x")
        assert "/x" in bf

    def test_zero_items_clamped(self):
        bf = BloomFilter(0)
        assert bf.num_bits >= 8

    def test_fill_ratio_grows(self):
        bf = BloomFilter(100)
        empty = bf.fill_ratio()
        for i in range(100):
            bf.add(str(i))
        assert bf.fill_ratio() > empty


class TestSSTable:
    def test_sorted_lookup(self):
        t = SSTable([("/b", 2), ("/a", 1), ("/c", 3)])
        assert t.get("/a") == (True, 1)
        assert t.get("/b") == (True, 2)
        assert t.get("/zzz") == (False, None)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            SSTable([("/a", 1), ("/a", 2)])

    def test_min_max_and_range_check(self):
        t = SSTable([("/b", 2), ("/d", 4)])
        assert t.key_in_range("/b") and t.key_in_range("/d")
        assert t.key_in_range("/c")
        assert not t.key_in_range("/a")
        assert not t.key_in_range("/e")

    def test_empty_table(self):
        t = SSTable([])
        assert len(t) == 0
        assert not t.key_in_range("")
        assert not t.might_contain("/x")

    def test_might_contain_no_false_negatives(self):
        items = [(f"/k{i:03d}", i) for i in range(50)]
        t = SSTable(items)
        assert all(t.might_contain(k) for k, _ in items)

    def test_range_scan_half_open(self):
        t = SSTable([(f"/k{i}", i) for i in range(5)])
        assert dict(t.range("/k1", "/k3")) == {"/k1": 1, "/k2": 2}

    def test_items_sorted(self):
        t = SSTable([("/c", 3), ("/a", 1), ("/b", 2)])
        assert [k for k, _ in t.items()] == ["/a", "/b", "/c"]

    def test_read_counter(self):
        t = SSTable([("/a", 1)])
        t.get("/a")
        t.get("/b")
        assert t.reads == 2


class TestMergeTables:
    def test_newest_wins(self):
        old = SSTable([("/a", "old"), ("/b", "old")])
        new = SSTable([("/a", "new")])
        merged = dict(merge_tables([new, old]))
        assert merged == {"/a": "new", "/b": "old"}

    def test_tombstones_kept_by_default(self):
        old = SSTable([("/a", 1)])
        new = SSTable([("/a", TOMBSTONE)])
        merged = dict(merge_tables([new, old]))
        assert merged["/a"] is TOMBSTONE

    def test_tombstones_dropped_at_bottom(self):
        old = SSTable([("/a", 1), ("/b", 2)])
        new = SSTable([("/a", TOMBSTONE)])
        merged = merge_tables([new, old], drop_tombstones=True)
        assert merged == [("/b", 2)]

    def test_merge_output_sorted(self):
        t1 = SSTable([("/c", 3)])
        t2 = SSTable([("/a", 1), ("/b", 2)])
        assert [k for k, _ in merge_tables([t1, t2])] == ["/a", "/b", "/c"]
