"""Unit tests for the Memcached-equivalent MemKV store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.memkv import (
    CapacityExceeded,
    CasMismatch,
    KeyExists,
    MemKV,
    _sizeof,
)
from tests.properties.test_memkv_sizeof import reference_sizeof


@pytest.fixture
def kv():
    return MemKV(name="test")


class TestBasicOps:
    def test_get_missing_returns_none(self, kv):
        assert kv.get("/a") is None
        assert kv.misses == 1

    def test_set_then_get(self, kv):
        kv.set("/a", {"mode": 0o755})
        assert kv.get("/a") == {"mode": 0o755}
        assert kv.hits == 1

    def test_set_overwrites(self, kv):
        kv.set("/a", 1)
        kv.set("/a", 2)
        assert kv.get("/a") == 2
        assert len(kv) == 1

    def test_delete_present(self, kv):
        kv.set("/a", 1)
        assert kv.delete("/a") is True
        assert kv.get("/a") is None
        assert len(kv) == 0

    def test_delete_absent(self, kv):
        assert kv.delete("/nope") is False

    def test_contains(self, kv):
        kv.set("/a", 1)
        assert "/a" in kv
        assert "/b" not in kv

    def test_add_only_if_absent(self, kv):
        kv.add("/a", 1)
        with pytest.raises(KeyExists):
            kv.add("/a", 2)
        assert kv.get("/a") == 1

    def test_flush_all(self, kv):
        kv.set("/a", 1)
        kv.set("/b", 2)
        kv.flush_all()
        assert len(kv) == 0
        assert kv.used_bytes == 0


class TestCas:
    def test_gets_returns_token(self, kv):
        kv.set("/a", "v1")
        value, token = kv.gets("/a")
        assert value == "v1"
        assert isinstance(token, int)

    def test_gets_missing(self, kv):
        assert kv.gets("/a") is None

    def test_cas_succeeds_with_current_token(self, kv):
        kv.set("/a", "v1")
        _, token = kv.gets("/a")
        kv.cas("/a", "v2", token)
        assert kv.get("/a") == "v2"

    def test_cas_fails_with_stale_token(self, kv):
        kv.set("/a", "v1")
        _, token = kv.gets("/a")
        kv.set("/a", "v2")  # bumps version
        with pytest.raises(CasMismatch):
            kv.cas("/a", "v3", token)
        assert kv.get("/a") == "v2"
        assert kv.cas_failures == 1

    def test_cas_on_deleted_key_fails(self, kv):
        kv.set("/a", "v1")
        _, token = kv.gets("/a")
        kv.delete("/a")
        with pytest.raises(CasMismatch):
            kv.cas("/a", "v2", token)

    def test_cas_retry_loop_converges(self, kv):
        """The paper's §III.D.3 pattern: retry CAS until success."""
        kv.set("/ctr", 0)

        def bump():
            while True:
                value, token = kv.gets("/ctr")
                try:
                    kv.cas("/ctr", value + 1, token)
                    return
                except CasMismatch:
                    continue

        # Interleave two logical writers with stale reads.
        v1, t1 = kv.gets("/ctr")
        kv.cas("/ctr", v1 + 1, t1)  # writer A wins
        bump()  # writer B retries transparently
        assert kv.get("/ctr") == 2

    def test_versions_strictly_increase(self, kv):
        kv.set("/a", 1)
        _, t1 = kv.gets("/a")
        kv.set("/a", 2)
        _, t2 = kv.gets("/a")
        assert t2 > t1


class TestMemoryAccounting:
    def test_usage_grows_and_shrinks(self, kv):
        before = kv.used_bytes
        kv.set("/a", b"x" * 1000)
        assert kv.used_bytes > before + 1000
        kv.delete("/a")
        assert kv.used_bytes == before

    def test_overwrite_adjusts_usage(self, kv):
        kv.set("/a", b"x" * 1000)
        big = kv.used_bytes
        kv.set("/a", b"x" * 10)
        assert kv.used_bytes < big

    def test_capacity_enforced(self):
        kv = MemKV(capacity_bytes=500)
        with pytest.raises(CapacityExceeded):
            kv.set("/a", b"x" * 1000)

    def test_usage_fraction(self):
        kv = MemKV(capacity_bytes=10_000)
        kv.set("/a", b"x" * 5000)
        assert 0.4 < kv.usage_fraction() < 0.7

    @given(record=st.dictionaries(
        st.one_of(st.text(alphabet="abc_", max_size=8), st.text(max_size=4)),
        st.one_of(
            st.binary(max_size=16),                  # inline_data
            st.text(alphabet="abc/._-", max_size=12),  # ASCII
            st.text(alphabet="éß漢/a", max_size=6),     # non-ASCII
            st.none(), st.booleans(), st.integers(), st.floats(),
            st.lists(st.binary(max_size=4), max_size=3),
            st.dictionaries(st.text(max_size=3), st.binary(max_size=4),
                            max_size=2)),
        max_size=14))
    def test_flat_record_sized_by_the_recursive_rule(self, record):
        """One pass over a flat record, ``bytes`` values included, sizes
        it exactly as the recursive rule does."""
        assert _sizeof(record) == reference_sizeof(record)

    def test_stats_snapshot(self, kv):
        kv.set("/a", 1)
        kv.get("/a")
        kv.get("/b")
        assert len(kv) == 1
        assert kv.hits == 1
        assert kv.misses == 1


class TestScan:
    def test_scan_prefix_filters(self, kv):
        kv.set("/ws1/a", 1)
        kv.set("/ws1/b", 2)
        kv.set("/ws2/c", 3)
        found = dict(kv.scan_prefix("/ws1/"))
        assert found == {"/ws1/a": 1, "/ws1/b": 2}

    def test_scan_prefix_empty(self, kv):
        assert list(kv.scan_prefix("/none")) == []

    def test_scan_allows_concurrent_delete(self, kv):
        kv.set("/a/1", 1)
        kv.set("/a/2", 2)
        for key, _ in kv.scan_prefix("/a/"):
            kv.delete(key)  # must not raise during iteration
        assert len(kv) == 0

    def test_keys_iteration(self, kv):
        kv.set("/a", 1)
        kv.set("/b", 2)
        assert sorted(kv.keys()) == ["/a", "/b"]
