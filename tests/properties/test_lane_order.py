"""Property: the same-instant lane keeps the heap's order.

Entries due at ``now`` wait in a FIFO beside the heap, and ``run``
takes the smaller ``(time, key)`` of the two heads.  A sleep's and a
grant's wake-up carry their own key as the token (``seq`` and ``-seq``),
so the ``(now, abs(token))`` of every int-token wake-up — stale ones
included — is the key order the kernel ran them in, and it must be
strictly increasing.  Random programs mix everything that pushes to
either side: sleeps (``0.0`` and equal delays, so wake-ups tie),
contended and uncontended parks on one resource, event triggers, waits
on already-processed events (late callbacks), same-instant interrupts,
and ``run(until=)`` slices.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment, Interrupt, Process, cancel_wait
from repro.sim.resources import Resource

_delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0])
_steps = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    st.tuples(st.just("hold"), _delays),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_programs = st.lists(st.lists(_steps, min_size=1, max_size=8),
                     min_size=2, max_size=6)
_slices = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]),
                   max_size=4).map(sorted)


def _worker(env, pid, steps, res, events, procs):
    for step in steps:
        try:
            if step[0] == "sleep":
                yield step[1]
            elif step[0] == "hold":
                yield res
                try:
                    yield step[1]
                finally:
                    res.release()
            elif step[0] == "fire":
                if not events[step[1]].triggered:
                    events[step[1]].succeed(pid)
            elif step[0] == "wait":
                # Only a fired event; once processed, the wait registers
                # a late callback.
                if events[step[1]].triggered:
                    yield events[step[1]]
            else:
                target = procs[step[1] % len(procs)]
                if target is not procs[pid]:
                    cancel_wait(target.waiting_on)
                    target.interrupt(pid)
        except Interrupt:
            pass


def _wake_ups(program, capacity, slices):
    """Run ``program`` and return the ``(now, abs(token))`` of every
    int-token wake-up, in the order ``_resume`` saw them."""
    seen = []
    resume = Process._resume

    def recording(self, trigger):
        if trigger.__class__ is int:
            seen.append((self.env.now, abs(trigger)))
        return resume(self, trigger)

    with mock.patch.object(Process, "_resume", recording):
        env = Environment()
        res = Resource(env, capacity=capacity)
        events = [env.event() for _ in range(3)]
        procs = []
        for pid, steps in enumerate(program):
            procs.append(env.process(
                _worker(env, pid, steps, res, events, procs)))
        for bound in slices:
            if bound >= env.now:
                env.run(until=bound)
        env.run()
    return seen


@settings(max_examples=300, deadline=None)
@given(program=_programs, capacity=st.integers(1, 2), slices=_slices)
def test_wake_ups_run_in_key_order(program, capacity, slices):
    seen = _wake_ups(program, capacity, slices)
    assert all(a < b for a, b in zip(seen, seen[1:])), seen


def test_a_lane_entry_waits_for_an_older_heap_entry_due_now():
    """The case a lane-first loop gets wrong, pinned: at t=1.0 process
    1's sleep ends first and its ``yield 0.0`` puts a wake-up in the
    lane, while process 0's sleep — pushed at t=0 with a smaller key —
    is still on the heap, due at that same instant, and must run first
    (its release then hands the slot to 2)."""
    program = [[("hold", 1.0)], [("sleep", 1.0), ("sleep", 0.0)],
               [("hold", 0.25)]]
    seen = _wake_ups(program, 1, [])
    assert [now for now, _key in seen] == [0.0, 1.0, 1.0, 1.0, 1.0, 1.25]
    assert all(a < b for a, b in zip(seen, seen[1:])), seen
