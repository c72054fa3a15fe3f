"""What observing may cost, and what its cheaper paths must still equal.

* An unobserved run reaches no observer code at all: no function defined
  in ``repro/obs/``, ``sim/trace.py`` or ``sim/stats.py`` is called (the
  tier-1 twin of the benchmark's ``obs.calls`` = 0 on its hub-less
  workloads).
* The trace log keeps no per-event object for the cyclic GC to walk.
* ``MetricsHub.to_json``, which encodes a shared time axis once, writes
  what ``json.dumps`` writes.
* Each accessor the gauge sampler reads on every tick answers exactly
  what the straightforward computation answers:
  ``Resource.window_utilization`` (bit for bit, against the
  ``busy_time()``-based formula), ``CommitProcess.
  oldest_outstanding_timestamp`` (against a brute-force minimum over the
  drain, the retries and the held ops), and ``QuantileSketch.observe``
  (against the bucket formula, exact powers of ``growth`` included).
"""

import gc
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.systems import make_testbed
from repro.chaos.scenarios import SCENARIOS, run_scenario
from repro.core.commit import CommitProcess
from repro.core.region import ConsistentRegion
from repro.obs.hub import MetricsHub
from repro.obs.sketch import QuantileSketch
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.workloads.mdtest import MdtestConfig, run_mdtest
from tests.obs.conftest import make_observed_world

_OBS_DIR = os.sep + os.path.join("repro", "obs") + os.sep
_RECORDING = (os.sep + os.path.join("repro", "sim", "trace.py"),
              os.sep + os.path.join("repro", "sim", "stats.py"))


def _observer_calls(run) -> set:
    """The observer functions ``run()`` calls, as ``file:function``."""
    called = set()

    def watch(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if _OBS_DIR in filename or filename.endswith(_RECORDING):
                called.add(f"{filename}:{frame.f_code.co_name}")

    # Finalize earlier tests' garbage first: a collection inside ``run``
    # closes any suspended sampler generator an observed world left in a
    # reference cycle, and the close is a ``call`` of ``sampler.py:run``.
    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return called


class TestAnUnobservedRunCallsNoObserver:
    def test_pacon_baselines_and_the_commit_drain(self):
        for system in ("pacon", "beegfs", "indexfs"):
            bed = make_testbed(system, nodes_per_app=2, clients_per_node=2,
                               seed=7)

            def run():
                run_mdtest(bed.env, bed.clients,
                           MdtestConfig(workdir="/app", items_per_client=6))
                bed.quiesce()
            assert _observer_calls(run) == set(), system

    def test_the_watch_sees_an_observed_run(self):
        """The probe is not blind: the same run with a hub calls into
        ``repro/obs`` and ``sim/trace.py``."""
        world = make_observed_world(n_nodes=2, clients_per_node=2)

        def run():
            for i, client in enumerate(world.clients):
                world.run(client.mkdir(f"/app/d{i}"))
            world.quiesce()
        called = _observer_calls(run)
        assert any(_OBS_DIR in name for name in called)
        assert any("trace.py" in name for name in called)


def test_the_trace_log_holds_nothing_the_collector_tracks():
    world = make_observed_world(n_nodes=2, clients_per_node=2)
    for i, client in enumerate(world.clients):
        world.run(client.mkdir(f"/app/d{i}"))
        world.run(client.create(f"/app/d{i}/f"))
    world.quiesce()
    tracer = world.hub.tracer
    assert len(tracer) > 100
    gc.collect()
    # One flat list of floats, ints, strings and None: no record object
    # per event, so a collection has nothing per event to walk ...
    assert not any(gc.is_tracked(item) for item in tracer._log)
    # ... unlike a NamedTuple record, which stays tracked for good.
    event = next(tracer.events())
    gc.collect()
    assert gc.is_tracked(event)



def test_sampler_ticks_stop_at_each_series_cap():
    """A tick appends through each series' own ``max_points`` cap: a full
    series counts the point in ``dropped`` while the others keep
    growing."""
    world = make_observed_world(n_nodes=2, clients_per_node=2)
    for i, client in enumerate(world.clients):
        world.run(client.mkdir(f"/app/d{i}"))
    world.quiesce()
    world.hub.stop_samplers()
    (sampler,) = world.hub.samplers
    series = sorted(world.hub.stats._series.values(), key=lambda s: s.name)
    assert len(series) > 6
    before = {s.name: (len(s), s.dropped) for s in series}
    for room, s in enumerate(series):  # room 0, 1, 2, ... per series
        s.max_points = len(s) + room % 4
    for _ in range(3):
        sampler.sample_once()
    for room, s in enumerate(series):
        kept = min(3, room % 4)
        length, dropped = before[s.name]
        assert len(s) == length + kept, s.name
        assert s.dropped == dropped + 3 - kept, s.name

# -- Resource.window_utilization ---------------------------------------------
def _reference_utilization(resource, mark):
    """The pre-batching formula: ``busy_time()`` (which accounts), then
    the window arithmetic."""
    busy, now = resource.busy_time(), resource.env.now
    window = now - mark[1]
    util = ((busy - mark[0]) / (window * resource.capacity)
            if window > 0 else 0.0)
    mark[0], mark[1] = busy, now
    return util


def _resource_program(env, resource, program):
    """Processes that take a slot, hold it and give it back; the hold
    times and start offsets come from ``program``."""
    def holder(start, hold):
        yield float(start)
        yield resource
        try:
            yield float(hold)
        finally:
            resource.release()
    for start, hold in program:
        env.process(holder(start, hold))


programs = st.lists(st.tuples(st.floats(0, 5e-3), st.floats(0, 2e-3)),
                    min_size=1, max_size=30)
probes = st.lists(st.floats(1e-5, 1e-3), min_size=1, max_size=20)


@settings(max_examples=60, deadline=None)
@given(program=programs, ticks=probes, capacity=st.integers(1, 3),
       seed_at=st.integers(0, 19))
def test_window_utilization_is_bit_identical(program, ticks, capacity,
                                             seed_at):
    """Two same-program resources, one read through the method and one
    through the reference formula, give the same floats at every tick —
    results, marks and accumulated busy time alike, with one mark seeded
    mid-run the way ``GaugeSampler.track`` seeds it."""
    pair = []
    for _ in range(2):
        env = Environment()
        res = Resource(env, capacity=capacity, name="r")
        _resource_program(env, res, program)
        pair.append((env, res, [[0.0, res.created_at]]))
    for step, dt in enumerate(ticks):
        readings = []
        for env, res, marks in pair:
            env.run(until=env.now + dt)
            if step == seed_at:
                marks.append([res.busy_time(), env.now])
            read = (res.window_utilization if res is pair[0][1]
                    else lambda mark, r=res: _reference_utilization(r, mark))
            readings.append(([read(mark) for mark in marks],
                             [list(mark) for mark in marks],
                             res._busy_time, res._last_change))
        assert readings[0] == readings[1]


# -- CommitProcess.oldest_outstanding_timestamp ------------------------------
def _brute_force_oldest(cp):
    stamps = [op.timestamp for op in cp._drain]
    stamps += [op.timestamp for op in cp._pending]
    stamps += [op.timestamp for held in cp._future.values() for op in held]
    return min(stamps, default=None)


#: The commit process's state transitions: each is followed by a check.
_TRANSITIONS = ("_settle", "_resolve", "_replay", "_resubmit",
                "_drop_unresolved", "_commit_segment")


def _chaos_with_checks():
    """Run every chaos scenario with the accessor checked against the
    brute force after each commit-process state transition and at every
    sampler tick; returns ``(checks, coverage)``."""
    checks = []
    seen = {"drain": 0, "pending": 0, "future": 0, "replays": 0,
            "dropped": 0}

    def check(cp):
        checks.append(cp.oldest_outstanding_timestamp()
                      == _brute_force_oldest(cp))
        seen["drain"] = max(seen["drain"], len(cp._drain))
        seen["pending"] = max(seen["pending"], len(cp._pending))
        seen["future"] = max(seen["future"], sum(
            len(held) for held in cp._future.values()))
        seen["replays"] = max(seen["replays"], cp.replays)

    patch = pytest.MonkeyPatch()
    for name in _TRANSITIONS:
        original = getattr(CommitProcess, name)
        if name == "_commit_segment":
            def wrapped(self, ops, _original=original):
                check(self)
                result = yield from _original(self, ops)
                check(self)
                return result
        elif name == "_drop_unresolved":
            def wrapped(self, _original=original):
                check(self)
                seen["dropped"] += bool(self._drain or self._pending
                                        or self._future)
                _original(self)
                check(self)
        else:
            def wrapped(self, op, _original=original):
                _original(self, op)
                check(self)
        patch.setattr(CommitProcess, name, wrapped)
    region_oldest = ConsistentRegion.oldest_outstanding_op_timestamp

    def oldest(self):
        for cp in self.commit_processes:
            check(cp)
        return region_oldest(self)
    patch.setattr(ConsistentRegion, "oldest_outstanding_op_timestamp",
                  oldest)
    try:
        for scenario in SCENARIOS:
            run_scenario(scenario)
    finally:
        patch.undo()
    return checks, seen


def test_oldest_outstanding_matches_the_brute_force():
    """Multi-op drains, resubmits, MDS-outage replays, future-epoch holds
    and crashes (``_drop_unresolved``) all keep the O(1) accessor equal
    to the minimum over every op the process holds."""
    checks, seen = _chaos_with_checks()
    assert checks and all(checks)
    assert seen["drain"] > 1 and seen["pending"] > 0
    assert seen["future"] > 0 and seen["replays"] > 0
    assert seen["dropped"] > 0


# -- QuantileSketch.observe --------------------------------------------------
def _formula_bucket(value, growth):
    """The bucket the sketch's documented formula picks."""
    idx = math.floor(math.log(value) * (1.0 / math.log(growth)))
    if growth ** (idx + 1) <= value:
        idx += 1
    return idx


values = st.one_of(
    st.floats(min_value=1e-12, max_value=1e6),
    st.integers(-400, 400).map(lambda k: 1.05 ** k),
    st.sampled_from([0.0, -0.0, -1.0, -1e-9, 1.0, 1.05, 1.05 ** 2]))


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(values, min_size=1, max_size=40))
def test_sketch_observe_picks_the_formula_bucket(batch):
    sketch = QuantileSketch()
    expected = {}
    zeros = 0
    for value in batch:
        sketch.observe(value)
        if value <= 0.0:
            zeros += 1
        else:
            idx = _formula_bucket(value, sketch.growth)
            expected[idx] = expected.get(idx, 0) + 1
    assert sketch._buckets == expected
    assert sketch.zero_count == zeros
    assert sketch.count == len(batch)
    assert sketch.min == min(batch) and sketch.max == max(batch)


# -- MetricsHub.to_json --------------------------------------------------------
def test_to_json_is_json_dumps_byte_for_byte():
    """Encoding each distinct ``series[*].t`` once changes no byte, at any
    indent — including arrays equal as numbers but not as JSON (ints, a
    negative zero), a document string that looks like the placeholder,
    and documents with no series section or a series with no ``t``."""
    world = make_observed_world(n_nodes=2, clients_per_node=2)
    for i, client in enumerate(world.clients):
        world.run(client.mkdir(f"/app/d{i}"))
    world.quiesce()
    world.hub.stop_samplers()
    exported = world.hub.export()
    tricky = {"series": {
        "a": {"t": [0.0, 1.0], "v": [1.0], "dropped": 0},
        "b": {"t": [0, 1], "v": [2.0], "dropped": 0},
        "c": {"t": [-0.0, 1.0], "v": [], "dropped": 0},
        "d": {"t": [0.0, 1.0], "v": [3.0], "dropped": 1},
        "e": {"t": [], "v": [], "dropped": 0}}}
    collided = dict(tricky, note="\0t\0")
    seriesless = {"counters": {"x": 1}}
    timeless = {"series": {"a": {"t": [0.0], "v": [1.0]}, "b": {"v": [2.0]}}}
    hub = MetricsHub()
    for doc in (exported, tricky, collided, seriesless, timeless):
        for indent in (None, 0, 2, "\t"):
            assert hub.to_json(indent, doc=doc) == json.dumps(
                doc, sort_keys=True, indent=indent)
