"""Unit tests for the LSM tree (LevelDB-equivalent)."""

import pytest

from repro.kvstore.lsm import LSMTree


@pytest.fixture
def lsm():
    return LSMTree(memtable_limit=8, l0_limit=2)


class TestBasicReadWrite:
    def test_get_missing(self, lsm):
        r = lsm.get("/nope")
        assert not r.found
        assert r.value is None

    def test_put_then_get_from_memtable(self, lsm):
        lsm.put("/a", {"ino": 1})
        r = lsm.get("/a")
        assert r.found and r.memtable_hit
        assert r.value == {"ino": 1}
        assert r.tables_probed == 0

    def test_overwrite_latest_wins(self, lsm):
        lsm.put("/a", 1)
        lsm.put("/a", 2)
        assert lsm.get("/a").value == 2

    def test_delete_hides_key(self, lsm):
        lsm.put("/a", 1)
        lsm.delete("/a")
        assert not lsm.get("/a").found

    def test_delete_across_flush(self, lsm):
        lsm.put("/a", 1)
        lsm.flush()
        lsm.delete("/a")
        lsm.flush()
        assert not lsm.get("/a").found

    def test_memtable_limit_validation(self):
        with pytest.raises(ValueError):
            LSMTree(memtable_limit=0)


class TestFlushAndCompaction:
    def test_auto_flush_at_limit(self):
        lsm = LSMTree(memtable_limit=4, l0_limit=10)
        for i in range(4):
            lsm.put(f"/k{i}", i)
        assert lsm.flushes == 1
        assert lsm.memtable_size == 0
        assert lsm.l0_tables == 1

    def test_reads_after_flush(self):
        lsm = LSMTree(memtable_limit=4, l0_limit=10)
        for i in range(12):
            lsm.put(f"/k{i}", i)
        for i in range(12):
            r = lsm.get(f"/k{i}")
            assert r.found and r.value == i

    def test_compaction_triggered_past_l0_limit(self):
        lsm = LSMTree(memtable_limit=2, l0_limit=2)
        for i in range(12):
            lsm.put(f"/k{i}", i)
        assert lsm.compactions >= 1
        assert lsm.l0_tables <= 2

    def test_compaction_preserves_all_live_data(self):
        lsm = LSMTree(memtable_limit=3, l0_limit=1)
        expected = {}
        for i in range(40):
            key = f"/k{i % 10}"
            lsm.put(key, i)
            expected[key] = i
        for key, value in expected.items():
            assert lsm.get(key).value == value

    def test_compaction_drops_tombstones(self):
        lsm = LSMTree(memtable_limit=2, l0_limit=0)
        lsm.put("/a", 1)
        lsm.put("/b", 2)  # flush + compact
        lsm.delete("/a")
        lsm.put("/c", 3)  # flush + compact: tombstone erased at bottom
        assert not lsm.get("/a").found
        assert lsm.l1_entries == 2  # /b and /c only

    def test_manual_flush_empty_is_noop(self, lsm):
        assert lsm.flush() == 0
        assert lsm.flushes == 0


class TestReadReceipts:
    def test_memtable_hit_receipt(self, lsm):
        lsm.put("/a", 1)
        r = lsm.get("/a")
        assert r.memtable_hit and r.bloom_checks == 0

    def test_table_probe_counted(self):
        lsm = LSMTree(memtable_limit=2, l0_limit=10)
        lsm.put("/a", 1)
        lsm.put("/b", 2)  # flushed
        r = lsm.get("/a")
        assert not r.memtable_hit
        assert r.tables_probed == 1
        assert r.bloom_checks >= 1

    def test_absent_key_mostly_bloom_filtered(self):
        lsm = LSMTree(memtable_limit=50, l0_limit=10)
        for i in range(200):
            lsm.put(f"/present/{i}", i)
        probes = 0
        for i in range(500):
            probes += lsm.get(f"/absent/{i}").tables_probed
        # Bloom filters keep physical probes well below one per lookup.
        assert probes < 100


class TestScan:
    def test_scan_merges_all_levels(self):
        lsm = LSMTree(memtable_limit=3, l0_limit=1)
        for i in range(10):
            lsm.put(f"/dir/f{i}", i)
        found = dict(lsm.scan_prefix("/dir/"))
        assert found == {f"/dir/f{i}": i for i in range(10)}

    def test_scan_respects_tombstones(self):
        lsm = LSMTree(memtable_limit=100, l0_limit=10)
        lsm.put("/d/a", 1)
        lsm.put("/d/b", 2)
        lsm.flush()
        lsm.delete("/d/a")
        assert dict(lsm.scan_prefix("/d/")) == {"/d/b": 2}

    def test_scan_prefix_boundary(self):
        lsm = LSMTree()
        lsm.put("/a/x", 1)
        lsm.put("/ab", 2)
        assert dict(lsm.scan_prefix("/a/")) == {"/a/x": 1}

    def test_scan_sorted_order(self):
        lsm = LSMTree()
        for k in ["/d/c", "/d/a", "/d/b"]:
            lsm.put(k, k)
        assert [k for k, _ in lsm.scan_prefix("/d/")] == ["/d/a", "/d/b", "/d/c"]

    def test_total_live_keys(self):
        lsm = LSMTree(memtable_limit=4, l0_limit=1)
        for i in range(10):
            lsm.put(f"/k{i}", i)
        lsm.delete("/k0")
        assert lsm.total_live_keys() == 9


class TestBulkInsertion:
    def test_put_batch_is_readable(self):
        lsm = LSMTree(memtable_limit=10_000)
        lsm.put_batch([(f"/k{i}", i) for i in range(100)])
        assert lsm.puts == 100
        assert lsm.get("/k50").value == 50

    def test_stats_snapshot(self):
        lsm = LSMTree(memtable_limit=4, l0_limit=1)
        for i in range(8):
            lsm.put(f"/k{i}", i)
        stats = lsm.stats()
        assert stats["puts"] == 8
        assert stats["flushes"] >= 1
