"""Unit tests for the distributed metadata cache."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheShard, DistributedCache, new_record
from repro.core.config import PaconConfig
from repro.core.failure import fail_node, recover_node
from repro.core.permissions import PermissionSpec
from repro.dfs.errors import PermissionDenied
from repro.dfs.mds import MetadataServer
from repro.dfs.namespace import Namespace
from repro.kvstore.memkv import CasMismatch, KeyExists
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.sim.network import Cluster, MessageDropped
from tests.core.conftest import make_paused_world, make_world


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


def _struck_world():
    """A client node and a shard node, the network counting drops into a
    hub, and one cached record."""
    cluster = Cluster()
    client, home = cluster.add_node("client"), cluster.add_node("home")
    shard = CacheShard(cluster, home, capacity_bytes=1 << 20)
    cluster.network.hub = hub = MetricsHub()
    shard.kv.set("/a", rec(ino=1))
    return cluster, client, shard, hub


class TestStrikesOnTheShardNode:
    """Each drop rule of a cache RPC, struck on the shard's node
    (``docs/simulation-model.md``, "Faults"): the request raises
    ``MessageDropped`` and counts ``net.dropped`` once, and the booking
    it sleeps in is kept to its end.  A strike in the worker booking also
    keeps the verb from running."""

    @pytest.mark.parametrize("stage, method", [
        ("receiver_booking", "get"), ("loopback_booking", "get"),
        ("worker_booking", "get"), ("worker_booking", "add"),
        ("restart_in_worker_booking", "get"),
        ("restart_in_worker_booking", "add")])
    def test_a_strike_drops_the_request_once(self, stage, method):
        cluster, client, shard, hub = _struck_world()
        env, net, costs = cluster.env, cluster.network, cluster.costs
        home = shard.node
        sent = costs.net_msg_overhead + costs.request_header_size / costs.net_bandwidth
        arrived = sent + costs.net_latency + costs.net_msg_overhead
        src, strike_at, pool, hold = {
            "receiver_booking": (client, arrived - costs.net_msg_overhead / 2,
                                 home.nic, costs.net_msg_overhead),
            "loopback_booking": (home, costs.local_loopback / 2, home.nic,
                                 costs.local_loopback),
            "worker_booking": (client, arrived + costs.memkv_op / 2,
                               shard.workers, costs.memkv_op),
            "restart_in_worker_booking": (
                client, arrived + costs.memkv_op / 2, shard.workers,
                costs.memkv_op),
        }[stage]
        args = ("/a",) if method == "get" else ("/b", rec(ino=2))
        before = (dict(shard.kv._items), shard.kv.hits, shard.kv.misses)

        def caller():
            try:
                yield from shard.request(src, method, *args)
            except MessageDropped:
                return "dropped"
            return "served"

        proc = env.process(caller())
        env.run(until=strike_at)
        assert pool.in_use == 1 and proc.waiting_on is None
        home.fail()
        if stage == "restart_in_worker_booking":
            home.recover()
        env.run(until=strike_at)
        assert pool.in_use == 1        # the booking stands after the strike
        env.run()
        assert proc.value == "dropped"
        assert net.dropped == 1
        assert hub.export()["counters"]["net.dropped"] == 1
        assert pool.in_use == 0 and pool.busy_time() == pytest.approx(hold)
        assert (dict(shard.kv._items), shard.kv.hits,
                shard.kv.misses) == before       # the verb never ran
        assert shard.requests_served == 0


def test_a_strike_on_a_clients_add_keeps_the_op_accounting():
    """A create whose ``add`` is struck in its shard's worker booking:
    the op fails before it is published, and after recovery the region's
    accounting still closes."""
    w = make_world(n_nodes=2)
    env, region = w.cluster.env, w.region
    path = next(f"/app/f{i}" for i in range(100)
                if region.cache.shard_for(f"/app/f{i}").node is w.nodes[1])
    shard = region.cache.shard_for(path)
    proc = env.process(w.client.create(path), label="create")

    def in_add_booking():
        frame = proc._generator
        while frame.gi_yieldfrom is not None:
            frame = frame.gi_yieldfrom
        rpc = frame.gi_frame.f_locals if frame.gi_frame else {}
        return (frame.gi_code.co_name == "request"
                and rpc.get("method") == "add" and "arrival" in rpc)

    while not in_add_booking():
        env.step()
    assert shard.workers.in_use == 1
    report = fail_node(region, w.nodes[1])
    with pytest.raises(MessageDropped):
        env.run(proc)
    assert region.cluster.network.dropped == 1
    recover_node(region, w.nodes[1])
    w.quiesce()
    resolved = sum(cp.committed + cp.discarded + cp.coalesced
                   for cp in region.commit_processes)
    assert region.ops_submitted == resolved + report.lost_queued_ops


def _op_events(env, gen):
    """The kernel events ``gen`` adds as one process: its run's events
    less a process's own start and end (an empty process's count)."""
    def idle():
        return
        yield

    before = env.processed_events
    env.process(idle())
    env.run()
    base = env.processed_events - before
    before = env.processed_events
    env.process(gen)
    env.run()
    return env.processed_events - before - base


class TestKernelEventsPerRpc:
    """The kernel events one RPC adds to the process that makes it: two
    per remote hop (the sender booking plus the latency, the receiver
    booking), one per loopback hop, plus the service — one booking sleep
    for a cache verb, a grant and the handler's sleep for an MDS
    ``getattr``."""

    @staticmethod
    def _events(make, loopback):
        cluster = Cluster()
        client, home = cluster.add_node("client"), cluster.add_node("home")
        service, args = make(cluster, home)

        def rpc():
            yield from service.request(home if loopback else client, *args)

        return _op_events(cluster.env, rpc())

    @pytest.mark.parametrize("loopback, events", [(False, 5), (True, 3)])
    def test_a_cache_rpc(self, loopback, events):
        def make(cluster, home):
            return CacheShard(cluster, home, capacity_bytes=1 << 20), \
                ("get", "/a")
        assert self._events(make, loopback) == events

    @pytest.mark.parametrize("loopback, events", [(False, 6), (True, 4)])
    def test_an_mds_rpc(self, loopback, events):
        def make(cluster, home):
            return MetadataServer(cluster, home, Namespace()), \
                ("getattr", "/")
        assert self._events(make, loopback) == events


class TestKernelEventsPerOp:
    """A warm Pacon op's kernel events: one client prologue (client CPU
    and the batch check in one sleep), its cache RPC (5 events to a
    remote shard, 3 to the local one) and, for a mutation, the commit
    queue push.  The commit processes are paused, so a publish wakes
    nobody."""

    @staticmethod
    def _world():
        cluster, _dfs, _dep, region, client = make_paused_world(
            PaconConfig(workspace="/app"))
        return cluster.env, region, client

    @staticmethod
    def _path(region, client, local, stem):
        """A path under ``/app`` whose cache shard is (not) ``client``'s."""
        for i in range(64):
            path = f"/app/{stem}{i}"
            if (region.cache.shard_for(path).node is client.node) == local:
                return path
        raise AssertionError("no such path")

    @pytest.mark.parametrize("local, rpc", [(False, 5), (True, 3)])
    def test_a_warm_getattr(self, local, rpc):
        env, region, client = self._world()
        path = self._path(region, client, local, "d")
        run_sync(env, client.mkdir(path))
        assert _op_events(env, client.getattr(path)) == 1 + rpc
        assert client.cache_hits == 1

    @pytest.mark.parametrize("op", ["mkdir", "create"])
    @pytest.mark.parametrize("local, rpc", [(False, 5), (True, 3)])
    def test_a_mutation_adds_its_publish_sleep(self, op, local, rpc):
        env, region, client = self._world()
        path = self._path(region, client, local, op)
        assert _op_events(env, getattr(client, op)(path)) == 1 + rpc + 1
        assert region.ops_submitted == 1


def test_a_chmod_inside_the_client_cpu_window_leaves_the_verdict_at_entry():
    """The batch check reads the region's permission state at op entry:
    a chmod whose special-list entry lands after the op starts but before
    its client CPU is spent does not change that op's verdict, and the
    next op sees it."""
    world = make_world()
    env, region, client = world.cluster.env, world.region, world.client
    world.run(client.mkdir("/app/d"))
    world.run(client.create("/app/d/f"))
    t0, cpu = env.now, client.costs.client_op_cpu
    assert cpu > 0

    def chmod_lands():
        yield (t0 + cpu / 2,)
        region.permissions.add_special(
            "/app/d", PermissionSpec(mode=0o000, uid=client.uid,
                                     gid=client.gid))

    env.process(chmod_lands())
    op = env.process(client.getattr("/app/d/f"))
    env.run(until=op)
    assert op.value.ino > 0
    with pytest.raises(PermissionDenied):
        world.run(client.getattr("/app/d/f"))


_costs = st.one_of(st.just(0.0), st.floats(0.0, 1e-3))


@settings(max_examples=60, deadline=None)
@given(start=st.one_of(st.just(0.0), st.floats(0.0, 1e3)), cpu=_costs,
       batch=_costs, per_item=_costs, special=st.booleans(),
       path=st.sampled_from(["/app/x", "/app/d/x", "/app/d/e/x"]))
def test_the_merged_prologue_wakes_at_the_two_sleep_instant(
        start, cpu, batch, per_item, special, path):
    """``_enter`` charges client CPU and the batch check in one sleep to
    ``(now + cpu) + check``: bit for bit the instant a ``cpu`` sleep and
    then a check sleep reach, zero costs (no sleep) included."""
    world = make_world()
    env, region, client = world.cluster.env, world.region, world.client
    if special:
        region.permissions.add_special(
            "/app/d", PermissionSpec(mode=0o755, uid=client.uid,
                                     gid=client.gid))
    client.costs = replace(client.costs, client_op_cpu=cpu,
                           permission_check_batch=batch,
                           permission_check_special_per_item=per_item)
    woke = {}

    def two_sleeps():
        yield (start,)
        receipt = region.permissions._check_op("getattr", path, client.uid,
                                               client.gid)
        if cpu > 0:
            yield cpu
        check = (batch * receipt.normal_checks +
                 per_item * receipt.special_items_scanned)
        if check > 0:
            yield check
        woke["two"] = env.now

    def merged():
        yield (start,)
        yield from client._enter("getattr", path)
        woke["one"] = env.now

    env.process(two_sleeps())
    env.process(merged())
    env.run()
    assert woke["one"].hex() == woke["two"].hex()
