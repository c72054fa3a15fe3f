"""Unit tests for the distributed metadata cache."""

import pytest

from repro.core.cache import CacheShard, DistributedCache, new_record
from repro.kvstore.memkv import CasMismatch, KeyExists
from repro.sim.core import run_sync
from repro.sim.network import Cluster


def make_cache(n_shards=4):
    cluster = Cluster()
    nodes = [cluster.add_node(f"n{i}") for i in range(n_shards)]
    shards = [CacheShard(cluster, node, capacity_bytes=1 << 20,
                         name=f"shard{i}")
              for i, node in enumerate(nodes)]
    return cluster, nodes, DistributedCache(shards)


def rec(ino=1, committed=False, **kw):
    base = {"ino": ino, "ftype": "file", "mode": 0o644, "uid": 1, "gid": 1,
            "size": 0, "ctime": 0.0, "mtime": 0.0, "nlink": 1,
            "inline_data": None}
    return new_record(base, committed=committed, **kw)


class TestNewRecord:
    def test_flags_defaults(self):
        r = rec()
        assert r["committed"] is False
        assert r["deleted"] is False
        assert r["large"] is False
        assert r["shadow"] is False

    def test_unknown_flag_rejected(self):
        with pytest.raises(TypeError):
            rec(bogus=True)


class TestDistributedCache:
    def test_needs_shards(self):
        with pytest.raises(ValueError):
            DistributedCache([])

    def test_set_get_roundtrip(self):
        cluster, nodes, cache = make_cache()

        def proc():
            yield from cache.set(nodes[0], "/a", rec(ino=5))
            got = yield from cache.get(nodes[0], "/a")
            return got

        got = run_sync(cluster.env, proc())
        assert got["ino"] == 5

    def test_get_missing_none(self):
        cluster, nodes, cache = make_cache()

        def proc():
            return (yield from cache.get(nodes[0], "/nope"))

        assert run_sync(cluster.env, proc()) is None

    def test_add_rejects_duplicate(self):
        cluster, nodes, cache = make_cache()

        def proc():
            yield from cache.add(nodes[0], "/a", rec())
            yield from cache.add(nodes[0], "/a", rec())

        with pytest.raises(KeyExists):
            run_sync(cluster.env, proc())

    def test_keys_spread_over_shards(self):
        cluster, nodes, cache = make_cache()

        def proc():
            for i in range(200):
                yield from cache.set(nodes[0], f"/dir/f{i}", rec(ino=i))

        run_sync(cluster.env, proc())
        sizes = [len(s.kv) for s in cache.shards]
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == 200

    def test_placement_deterministic(self):
        _, _, cache1 = make_cache()
        _, _, cache2 = make_cache()
        for i in range(50):
            key = f"/dir/f{i}"
            assert (cache1.shard_for(key).name
                    == cache2.shard_for(key).name)

    def test_cas_mismatch_raises(self):
        cluster, nodes, cache = make_cache()

        def proc():
            yield from cache.set(nodes[0], "/a", rec())
            _, token = yield from cache.gets(nodes[0], "/a")
            yield from cache.set(nodes[0], "/a", rec(ino=2))
            yield from cache.cas(nodes[0], "/a", rec(ino=3), token)

        with pytest.raises(CasMismatch):
            run_sync(cluster.env, proc())

    def test_update_retries_until_success(self):
        cluster, nodes, cache = make_cache()
        results = []

        def writer(tag):
            def bump(record):
                record["size"] += 1
                return record
            final = yield from cache.update(nodes[0], "/ctr", bump)
            results.append((tag, final["size"]))

        def proc():
            yield from cache.set(nodes[0], "/ctr", rec())

        run_sync(cluster.env, proc())
        for i in range(8):
            cluster.env.process(writer(i))
        cluster.env.run()
        final = cache.peek("/ctr")
        assert final["size"] == 8

    def test_update_missing_returns_none(self):
        cluster, nodes, cache = make_cache()

        def proc():
            return (yield from cache.update(nodes[0], "/ghost",
                                            lambda r: r))

        assert run_sync(cluster.env, proc()) is None

    def test_update_abort_returns_none(self):
        cluster, nodes, cache = make_cache()

        def proc():
            yield from cache.set(nodes[0], "/a", rec(ino=1))
            out = yield from cache.update(nodes[0], "/a", lambda r: None)
            return out

        assert run_sync(cluster.env, proc()) is None
        assert cache.peek("/a")["ino"] == 1  # unchanged

    def test_delete_subtree_all_shards(self):
        cluster, nodes, cache = make_cache()

        def proc():
            yield from cache.set(nodes[0], "/d", rec())
            for i in range(40):
                yield from cache.set(nodes[0], f"/d/f{i}", rec())
            yield from cache.set(nodes[0], "/other", rec())
            n = yield from cache.delete_subtree(nodes[0], "/d")
            return n

        assert run_sync(cluster.env, proc()) == 41
        assert cache.total_items() == 1
        assert cache.peek("/other") is not None

    def test_scan_subtree_sorted(self):
        cluster, nodes, cache = make_cache()

        def proc():
            for name in ["/d/c", "/d/a", "/d/b", "/x"]:
                yield from cache.set(nodes[0], name, rec())
            return (yield from cache.scan_subtree(nodes[0], "/d"))

        found = run_sync(cluster.env, proc())
        assert [k for k, _ in found] == ["/d/a", "/d/b", "/d/c"]

    def test_hit_rate(self):
        cluster, nodes, cache = make_cache(n_shards=1)

        def proc():
            yield from cache.set(nodes[0], "/a", rec())
            yield from cache.get(nodes[0], "/a")
            yield from cache.get(nodes[0], "/miss")

        run_sync(cluster.env, proc())
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_remote_access_costs_more_than_local(self):
        cluster, nodes, cache = make_cache(n_shards=2)
        # Find keys owned by shard 0 and shard 1.
        local_key = next(f"/k{i}" for i in range(100)
                         if cache.shard_for(f"/k{i}") is cache.shards[0])
        remote_key = next(f"/k{i}" for i in range(100)
                          if cache.shard_for(f"/k{i}") is cache.shards[1])

        def timed(key):
            def proc():
                t0 = cluster.env.now
                yield from cache.set(nodes[0], key, rec())
                return cluster.env.now - t0
            return run_sync(cluster.env, proc())

        assert timed(remote_key) > timed(local_key)
