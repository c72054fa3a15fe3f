"""Property: a bare-delay sleep is schedule-identical to ``env.timeout``.

``yield d`` and ``yield env.timeout(d)`` must be two spellings of one
schedule: the sequence number is taken at the same point (the yield), the
heap key is the same, a stale wake-up costs the same processed event.
Random programs — sleeps that tie (equal delays, ``0.0``), resource
holds, barrier arrivals, interrupts with the repo's
``cancel_wait(proc.waiting_on)`` idiom — are run once per spelling and
must agree on every resume, on ``processed_events`` and on the final
sequence number.

The second half is the allocation proof in the repo's monkeypatch style:
once the process exists, sleeping constructs no ``Event`` of any kind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import (
    Environment,
    Event,
    Interrupt,
    Timeout,
    cancel_wait,
)
from repro.sim.resources import Barrier, Resource

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
                yield res.acquire()
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
                    # sleeper under either spelling.
                    cancel_wait(target.waiting_on)
                    target.interrupt(pid)
                    # Let it land before striking again: cancelling one
                    # granted-but-unconsumed acquire twice releases twice.
                    yield nap(env, 0.0)
        except Interrupt as intr:
            log.append((env.now, pid, n, "interrupted by", intr.cause))


def _run(program, capacity, spelling):
    env = Environment()
    res = Resource(env, capacity=capacity)
    barrier = Barrier(env, parties=2)
    log, procs = [], []
    for pid, steps in enumerate(program):
        procs.append(env.process(_worker(
            env, pid, steps, res, barrier, procs, _SPELLINGS[spelling], log)))
    env.run()
    return (log, env.processed_events, env._seq, env.now,
            [p.is_alive for p in procs], res.in_use)


@settings(max_examples=300, deadline=None)
@given(program=_programs, capacity=st.integers(1, 2))
def test_bare_delays_and_timeouts_give_the_same_schedule(program, capacity):
    assert _run(program, capacity, "delay") == \
        _run(program, capacity, "timeout")


def test_an_interrupted_sleep_with_a_three_way_tie():
    """One program of the kind drawn above, pinned: process 0 is
    interrupted out of its first sleep, whose stale wake-up then ties at
    t=1.0 with process 1's wake-up and the end of process 2's hold."""
    program = [[("sleep", 1.0), ("sleep", 1.0)],
               [("sleep", 0.5), ("interrupt", 0), ("sleep", 0.5)],
               [("hold", 1.0)]]
    expected = ([(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (0.5, 1, 1),
                 (0.5, 0, 0, "interrupted by", 1), (0.5, 0, 1), (0.5, 1, 2)],
                14, 14, 1.5, [False, False, False], 0)
    assert _run(program, 1, "delay") == expected
    assert _run(program, 1, "timeout") == expected


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
    monkeypatch.setattr(Timeout, "__init__", boom)
    env.run()
    assert woke == [0.0, 1.0, 2.0, 2.5]
    assert proc.value == "rested"
    # Bootstrap, four wake-ups, the process's own completion event.
    assert env.processed_events == 6
