"""Property: booking a NIC channel on arrival is the park model.

A hop books a NIC channel (a :class:`~repro.sim.resources.BookedPool`)
when a message reaches it (start at ``max(now, earliest free time)``, end
``hold`` later) and sleeps until the end.  The model it replaced parked
on a ``Resource``, slept the hold and released.  For a FIFO whose hold
times are known on arrival the two agree exactly, because every
hand-over happened at the previous holder's end.

Random fault-free schedules — 1–3 channels, random sizes, remote and
loopback messages mixed on one node, sends at distinct instants — run
through a test-local copy of the park model and through the real hop
steps of ``Network``.  Every booking's ``(start, end)`` and every delivery instant
must be bit-identical, and at random probe instants the NICs' contention
figures must read what the parked ``Resource`` read.

Same-instant ties are excluded (``assume``): where a message reaches a
NIC at the very instant a channel frees, the park model queued it or not
depending on which wake-up ran first, which the booking does not
reproduce (``docs/simulation-model.md``, "Same-instant tie order").
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.costs import CostModel
from repro.sim.network import Cluster
from repro.sim.resources import BookedPool, Resource
from tests.sim.conftest import hop

N_NODES = 3

_instants = st.floats(0.0, 200e-6, allow_nan=False)
_messages = st.lists(
    st.tuples(_instants, st.integers(0, N_NODES - 1),
              st.integers(0, N_NODES - 1), st.integers(0, 1 << 16)),
    min_size=1, max_size=24, unique_by=lambda m: m[0])
_probes = st.lists(st.floats(0.0, 400e-6, allow_nan=False), max_size=6)


def _park_transfer(env, c, src, dst, nbytes, log):
    """The park model: ``yield res`` / ``yield hold`` / ``release()``."""
    def hold(res, seconds):
        yield res
        start = env.now
        try:
            yield seconds
        finally:
            res.release()
        log.append((res.name, start, env.now))

    if src is dst:
        yield from hold(src, c.local_loopback)
        return
    yield from hold(src, c.net_msg_overhead + nbytes / c.net_bandwidth)
    if c.net_latency > 0:
        yield c.net_latency
    yield from hold(dst, c.net_msg_overhead)


def _reading(nic):
    return (nic.total_acquires, nic.total_wait_time, nic.peak_queue,
            nic.in_use, nic.queue_length, nic.busy_time())


def _run(messages, probes, channels, booked):
    """Run the schedule on NICs (``booked``) or on parked Resources; the
    per-message bookings, delivery instants and probe readings."""
    cluster = Cluster(CostModel(nic_channels=channels))
    env, net = cluster.env, cluster.network
    nodes = cluster.add_nodes(N_NODES)
    nics = ([node.nic for node in nodes] if booked else
            [Resource(env, channels, node.nic.name) for node in nodes])
    logs = [[] for _ in messages]
    delivered = [None] * len(messages)
    owner = {}

    def message(i, at, src, dst, nbytes):
        yield (at,)
        if booked:
            owner[env.active_process] = logs[i]
            yield from hop(net, nodes[src], nodes[dst], nbytes)
        else:
            yield from _park_transfer(env, cluster.costs, nics[src], nics[dst],
                                      nbytes, logs[i])
        delivered[i] = env.now

    readings = []

    def probe(at):
        yield (at,)
        readings.append([_reading(nic) for nic in nics])

    book = BookedPool.book

    def logged_book(nic, hold):
        start = max(env.now, min(nic._free))
        end = book(nic, hold)
        owner[env.active_process].append((nic.name, start, end))
        return end

    for i, (at, src, dst, nbytes) in enumerate(messages):
        env.process(message(i, at, src, dst, nbytes))
    for at in sorted(probes):
        env.process(probe(at))
    if booked:
        BookedPool.book = logged_book
    try:
        env.run()
    finally:
        BookedPool.book = book
    readings.append([_reading(nic) for nic in nics])
    return logs, delivered, readings


def _instants_of(logs, delivered, messages, costs):
    """Every instant a NIC saw something, in the park model's run."""
    out = {at for at, *_ in messages} | set(delivered)
    for log in logs:
        for _name, start, end in log:
            out |= {start, end}
    for log in logs:
        # The receiver's arrival: the sender's end plus the latency.
        if len(log) == 2:
            out.add(log[0][2] + costs.net_latency)
    return out


def _ties(logs, messages, costs):
    """True when a message reaches a NIC at an instant one of its
    channels frees."""
    ends, arrivals = {}, []
    for (at, _src, _dst, _n), log in zip(messages, logs):
        arrivals.append((log[0][0], at))
        if len(log) == 2:
            arrivals.append((log[1][0], log[0][2] + costs.net_latency))
        for name, _start, end in log:
            ends.setdefault(name, set()).add(end)
    return any(t in ends.get(name, ()) for name, t in arrivals)


@settings(max_examples=150, deadline=None)
@given(messages=_messages, probes=_probes, channels=st.integers(1, 3))
def test_booking_is_the_park_model(messages, probes, channels):
    costs = CostModel()
    ref_logs, ref_delivered, _ = _run(messages, [], channels, booked=False)
    assume(not _ties(ref_logs, messages, costs))
    assume(not set(probes) & _instants_of(ref_logs, ref_delivered,
                                          messages, costs))
    ref = _run(messages, probes, channels, booked=False)
    nic = _run(messages, probes, channels, booked=True)
    assert nic[0] == ref[0]      # every booking's (start, end), bit for bit
    assert nic[1] == ref[1]      # every delivery instant
    for nic_row, ref_row in zip(nic[2], ref[2]):
        for got, want in zip(nic_row, ref_row):
            assert got[:5] == want[:5]
            assert got[5] == pytest.approx(want[5], rel=1e-9, abs=1e-15)


def test_a_queued_booking_starts_at_the_earliest_free_channel():
    cluster = Cluster(CostModel(nic_channels=2))
    env = cluster.env
    nic = cluster.add_node().nic
    ends = []

    def booker(hold):
        ends.append(nic.book(hold))
        yield (ends[-1],)

    for hold in (3.0, 1.0, 2.0):
        env.process(booker(hold))
    env.run(until=0.5)
    assert ends == [3.0, 1.0, 3.0]          # the third waits for the 1.0
    assert (nic.in_use, nic.queue_length, nic.peak_queue) == (2, 1, 1)
    assert nic.total_wait_time == 0.0       # its wait has not ended yet
    assert nic.busy_time() == 1.0
    env.run()
    assert nic.total_wait_time == 1.0 and nic.busy_time() == 6.0
    assert nic.utilization() == 1.0
