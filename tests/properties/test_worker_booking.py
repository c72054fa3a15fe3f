"""Property: booking a cache shard's worker on arrival is the park model.

A request that reaches a :class:`~repro.core.cache.CacheShard` books a
worker of its :class:`~repro.sim.resources.BookedPool` for ``memkv_op``
(start at ``max(now, earliest free time)``), sleeps until the booking's
end and runs its verb there.  The model it replaced parked on a
``Resource``, ran a handler generator that slept ``memkv_op`` and then
ran the verb, and released the worker.  For a FIFO whose hold times are
known on arrival the two agree exactly, because every hand-over happened
at the previous holder's end.

Random fault-free schedules of cache RPCs — 1–4 workers, every point verb
but the scans, ``add`` races and ``gets``+``cas`` updates on two keys,
senders on other nodes and on the shard's own node (loopback) — run
through a test-local copy of the park-model request and through the real
``CacheShard.request``.  Each verb's instant and order, every RPC's
result (CAS winners and ``KeyExists`` included) and, at random probe
instants, the pool's ``total_acquires``, ``total_wait_time`` and
``peak_queue`` must be bit-identical; ``busy_time()`` is the same sum
taken another way (booked hold less what is booked past now), equal to
the last digits.

Same-instant ties are excluded (``assume``): where a request reaches the
pool at the very instant a worker frees, or two things happen to the pool
at one instant, the park model's order depended on which wake-up ran
first, which the booking does not reproduce (``docs/simulation-model.md``,
"Same-instant tie order").  The scans are left out: their hold is read at
arrival, where the park model read it at service start.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheShard
from repro.sim.core import Interrupt
from repro.sim.costs import CostModel
from repro.sim.network import Cluster, MessageDropped, NodeDownError
from repro.sim.resources import Resource
from tests.sim.conftest import hop

N_NODES = 3          # the shard lives on node 0: its senders loop back
KEYS = ("/k0", "/k1")
KINDS = ("get", "gets", "set", "add", "delete", "delete_if_ino", "update")

_rpcs = st.lists(
    st.tuples(st.floats(0.0, 120e-6, allow_nan=False),
              st.integers(0, N_NODES - 1), st.sampled_from(KINDS),
              st.sampled_from(KEYS), st.integers(1, 3)),
    min_size=1, max_size=20, unique_by=lambda r: r[0])
_probes = st.lists(st.floats(0.0, 400e-6, allow_nan=False), max_size=6)


def _parked_request(shard, src, method, *args):
    """The park model: ``Service.request`` before the cache shard booked
    its workers — hop, ``yield workers``, a handler sleeping ``memkv_op``
    then running the verb, release, hop."""
    net, node = shard.cluster.network, shard.node
    header = shard.costs.request_header_size
    yield from hop(net, src, node, header)
    mark = node.incarnation
    yield shard.workers
    if not node.alive or node.incarnation != mark:
        shard.workers.release()
        net.note_dropped()
        raise MessageDropped("queued")
    error = result = None
    try:
        yield shard.costs.memkv_op
        result = shard.verbs[method](*args)
    except (NodeDownError, Interrupt):
        raise
    except Exception as exc:
        error = exc
    finally:
        shard.workers.release()
    yield from hop(net, node, src, header)
    if error is not None:
        raise error
    return result


def _reading(pool):
    return (pool.total_acquires, pool.total_wait_time, pool.peak_queue,
            pool.busy_time())


def _run(rpcs, probes, workers, hold, booked):
    """Run the schedule through the real shard (``booked``) or the park
    model; the verb log, per-RPC outcomes, probe readings and the shard."""
    cluster = Cluster(CostModel(memkv_workers=workers, memkv_op=hold))
    env = cluster.env
    nodes = cluster.add_nodes(N_NODES)
    shard = CacheShard(cluster, nodes[0], capacity_bytes=1 << 20)
    if not booked:
        shard.workers = Resource(env, workers, shard.workers.name)
    verbs = []                 # (instant, method, args, outcome)

    def logged(method, fn):
        def run(*args):
            try:
                out = fn(*args)
            except Exception as exc:
                verbs.append((env.now, method, args, type(exc).__name__))
                raise
            verbs.append((env.now, method, args, repr(out)))
            return out
        return run

    shard.verbs = {m: logged(m, fn) for m, fn in shard.verbs.items()}
    real = shard.request

    def call(src, method, *args):
        return (real(src, method, *args) if booked
                else _parked_request(shard, src, method, *args))

    outcomes = [None] * len(rpcs)

    def rpc(i, at, src, kind, key, ino):
        yield (at,)
        node = nodes[src]
        record = {"ino": ino}
        try:
            if kind == "update":
                got = yield from call(node, "gets", key)
                if got is None:
                    outcomes[i] = "absent"
                    return
                outcomes[i] = yield from call(node, "cas", key, record,
                                              got[1])
            elif kind in ("set", "add"):
                outcomes[i] = yield from call(node, kind, key, record)
            elif kind == "delete_if_ino":
                outcomes[i] = yield from call(node, kind, key, ino)
            else:
                outcomes[i] = yield from call(node, kind, key)
        except Exception as exc:
            outcomes[i] = type(exc).__name__

    readings = []

    def probe(at):
        yield (at,)
        readings.append(_reading(shard.workers))

    for i, r in enumerate(rpcs):
        env.process(rpc(i, *r))
    for at in sorted(probes):
        env.process(probe(at))
    env.run()
    readings.append(_reading(shard.workers))
    return verbs, outcomes, readings, shard


def _parked_pool_log(rpcs, workers, hold):
    """Arrival and end instants at the parked pool, in a rerun of the park
    model with its ``Resource`` instrumented."""
    arrivals, ends = [], []
    park, release = Resource._park, Resource.release

    def logged_park(res, process):
        if res.name.endswith(".workers"):
            arrivals.append(res.env.now)
        return park(res, process)

    def logged_release(res):
        if res.name.endswith(".workers"):
            ends.append(res.env.now)
        release(res)

    Resource._park, Resource.release = logged_park, logged_release
    try:
        _run(rpcs, [], workers, hold, booked=False)
    finally:
        Resource._park, Resource.release = park, release
    return arrivals, ends


@settings(max_examples=150, deadline=None)
@given(rpcs=_rpcs, probes=_probes, workers=st.integers(1, 4),
       hold=st.sampled_from([1.8e-6, 15e-6, 40e-6]))
def test_booking_is_the_park_model(rpcs, probes, workers, hold):
    arrivals, ends = _parked_pool_log(rpcs, workers, hold)
    # No two requests reach the pool, and no two verbs end, at one
    # instant; none reaches it as a worker frees; no probe lands on a
    # pool instant.
    assume(len(set(arrivals)) == len(arrivals))
    assume(len(set(ends)) == len(ends))
    assume(not set(arrivals) & set(ends))
    assume(not set(probes) & (set(arrivals) | set(ends)))
    ref_verbs, ref_out, ref_read, _ = _run(rpcs, probes, workers, hold,
                                           booked=False)
    verbs, out, read, shard = _run(rpcs, probes, workers, hold, booked=True)
    assert verbs == ref_verbs        # every verb: instant, order, result
    assert out == ref_out            # every RPC's outcome
    assert len(read) == len(ref_read)
    for got, want in zip(read, ref_read):
        assert got[:3] == want[:3]
        assert got[3] == pytest.approx(want[3], rel=1e-9, abs=1e-15)
    assert shard.workers.in_use == shard.workers.queue_length == 0
