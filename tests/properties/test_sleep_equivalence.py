"""Property: the object-free waits keep the schedule of the events they
replaced.

``yield d`` and ``yield env.timeout(d)`` (the spelling ``benchmarks/perf``
still yields) must be two spellings of one schedule: random programs —
sleeps that tie (equal delays, ``0.0``), holds (``yield res``) on a
capacity-1 or capacity-2 resource, barrier arrivals, strikes with the
repo's ``cancel_wait(proc.waiting_on)`` + ``interrupt`` idiom (back to
back, so one wait is cancelled twice) — are run once per spelling and
must agree on every resume, on ``processed_events``, on the final
sequence number and on the resource's own counters.  Two programs are
pinned to the numbers the event spellings (a ``Timeout`` object, an
``acquire()`` event) gave before sleeps and parks existed.  The same
programs also run under four drivers of ``Environment.run`` — one plain
``run()``, time slices, awaiting a process first, and ``step()`` to the
end — which must agree as well: where a run stops is not a result.

The second half is the allocation proof in the repo's monkeypatch style:
once the process exists, neither sleeping nor taking a slot — free or
contended — constructs an ``Event`` of any kind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import (Environment, Event, Interrupt, SimulationError,
                            cancel_wait)
from repro.sim.resources import Barrier, Resource
from tests.sim.conftest import pending

_SPELLINGS = {"delay": lambda env, d: d,
              "timeout": lambda env, d: env.timeout(d)}

# Few distinct values, so wake-ups tie across processes all the time.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0])
_steps = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    st.tuples(st.just("hold"), _delays),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_programs = st.lists(st.lists(_steps, min_size=1, max_size=6),
                     min_size=1, max_size=5)


def _worker(env, pid, steps, res, barrier, procs, nap, log):
    for n, step in enumerate(steps):
        log.append((env.now, pid, n))
        try:
            if step[0] == "sleep":
                yield nap(env, step[1])
            elif step[0] == "hold":
                yield res
                try:
                    yield nap(env, step[1])
                finally:
                    res.release()
            elif step[0] == "barrier":
                yield barrier.arrive()
            else:
                target = procs[step[1] % len(procs)]
                if target is not procs[pid]:
                    # What core/commit.py does to a victim: a no-op for a
                    # sleeper.
                    cancel_wait(target.waiting_on)
                    target.interrupt(pid)
        except Interrupt as intr:
            log.append((env.now, pid, n, "interrupted by", intr.cause))


def _sliced(env, procs):
    # Slice at the program's own tie times.  A bound past the last entry
    # would become the final clock, so step until one is pending at or
    # past it (or none is left).
    for bound in (0.25, 0.5, 1.0, 2.0):
        while pending(env) and pending(env)[-1][0] < bound:
            env.step()
        if pending(env):
            env.run(until=bound)
            # Every entry due at the bound ran, those pushed at it too.
            assert env.now == bound
            assert all(entry[0] > bound for entry in pending(env))
    env.run()


def _awaited(env, procs):
    last = procs[-1]
    try:
        env.run(until=last)
    except SimulationError:
        assert last.is_alive and not pending(env)  # it waits at the barrier
    except Interrupt:
        assert last.exception is not None  # struck before it started
    env.run()


def _stepped(env, procs):
    while pending(env):
        env.step()


_DRIVERS = {"run": lambda env, procs: env.run(), "sliced": _sliced,
            "awaited": _awaited, "stepped": _stepped}


def _run(program, capacity, spelling, driver="run"):
    env = Environment()
    res = Resource(env, capacity=capacity)
    barrier = Barrier(env, parties=2)
    log, procs = [], []
    for pid, steps in enumerate(program):
        procs.append(env.process(_worker(
            env, pid, steps, res, barrier, procs, _SPELLINGS[spelling],
            log)))
    _DRIVERS[driver](env, procs)
    return (log, env.processed_events, env._seq, env.now,
            [p.is_alive for p in procs], res.in_use, res.queue_length,
            res.total_acquires, res.total_wait_time, res.peak_queue)


@settings(max_examples=300, deadline=None)
@given(program=_programs, capacity=st.integers(1, 2))
def test_bare_delays_and_timeouts_give_the_same_schedule(program, capacity):
    assert _run(program, capacity, "delay") == \
        _run(program, capacity, "timeout")


@settings(max_examples=200, deadline=None)
@given(program=_programs, capacity=st.integers(1, 2))
def test_the_bound_is_not_a_result(program, capacity):
    """Slicing a run by time, awaiting a process first, or stepping
    entry by entry gives the schedule one plain ``run()`` gives."""
    whole = _run(program, capacity, "delay")
    for driver in ("sliced", "awaited", "stepped"):
        assert _run(program, capacity, "delay", driver) == whole, driver


def test_an_interrupted_sleep_with_a_three_way_tie():
    """One program of the kind drawn above, pinned: process 0 is
    interrupted out of its first sleep, whose stale wake-up then ties at
    t=1.0 with process 1's wake-up and the end of process 2's hold."""
    program = [[("sleep", 1.0), ("sleep", 1.0)],
               [("sleep", 0.5), ("interrupt", 0), ("sleep", 0.5)],
               [("hold", 1.0)]]
    expected = ([(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (0.5, 1, 1),
                 (0.5, 1, 2), (0.5, 0, 0, "interrupted by", 1), (0.5, 0, 1)],
                13, 13, 1.5, [False, False, False], 0, 0, 1, 0.0, 0)
    assert _run(program, 1, "delay") == expected
    assert _run(program, 1, "timeout") == expected


def test_strikes_on_a_queued_and_on_a_granted_park():
    """One program of the kind drawn above, pinned to what
    ``yield res.acquire()`` gave before parks existed.  Process 0 holds
    the one slot; 1 is struck at t=0.5 while queued and queues again;
    at t=1.0 the release hands the slot to 2, which 3 strikes at that
    same instant — granted, wake-up still on the heap — so the cancel
    passes the slot on to 1."""
    program = [[("hold", 1.0), ("sleep", 0.5), ("hold", 0.5)],
               [("hold", 1.0), ("hold", 0.25)],
               [("hold", 0.5), ("hold", 0.5)],
               [("sleep", 0.5), ("interrupt", 1), ("sleep", 0.5),
                ("interrupt", 2), ("barrier",)],
               [("barrier",), ("hold", 2.0)]]
    expected = ([(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (0.0, 3, 0),
                 (0.0, 4, 0), (0.5, 3, 1), (0.5, 3, 2),
                 (0.5, 1, 0, "interrupted by", 3), (0.5, 1, 1), (1.0, 0, 1),
                 (1.0, 3, 3), (1.0, 3, 4), (1.0, 2, 0, "interrupted by", 3),
                 (1.0, 2, 1), (1.0, 4, 1), (1.5, 0, 2)],
                28, 28, 4.25, [False] * 5, 0, 0, 7, 4.75, 2)
    assert _run(program, 1, "delay") == expected


def test_sleeping_constructs_no_event(monkeypatch):
    env = Environment()
    woke = []

    def sleeper():
        for delay in (0.0, 1.0, 1.0, 0.5):
            yield delay
            woke.append(env.now)
        return "rested"

    proc = env.process(sleeper())    # the process itself is an Event

    def boom(*_args, **_kwargs):
        raise AssertionError("a sleep allocated an event")

    monkeypatch.setattr(Event, "__init__", boom)
    env.run()
    assert woke == [0.0, 1.0, 2.0, 2.5]
    assert proc.value == "rested"
    # Bootstrap, four wake-ups, the process's own completion event.
    assert env.processed_events == 6


def test_taking_a_slot_constructs_no_event(monkeypatch):
    env = Environment()
    free = Resource(env, capacity=2)
    contended = Resource(env, capacity=1)
    log = []

    def worker(tag):
        yield free                  # a slot is free: granted at the yield
        try:
            yield contended         # one of the two queues behind the other
            try:
                yield 1.0
            finally:
                contended.release()
        finally:
            free.release()
        log.append((tag, env.now))
        return tag

    procs = [env.process(worker(tag)) for tag in "ab"]

    def boom(*_args, **_kwargs):
        raise AssertionError("a grant allocated an event")

    monkeypatch.setattr(Event, "__init__", boom)
    env.run()
    assert log == [("a", 1.0), ("b", 2.0)]
    assert [p.value for p in procs] == ["a", "b"]
    assert (free.total_acquires, contended.total_acquires) == (2, 2)
    assert (contended.total_wait_time, contended.peak_queue) == (1.0, 1)
    assert (free.in_use, contended.in_use) == (0, 0)
    # Per process: bootstrap, two grants, one sleep, its completion event.
    assert env.processed_events == 10
