"""Kernel invariants: event-state honesty, detach behavior, determinism.

Regression suite for the hot-path rewrite: ``triggered``/``processed``
must tell the truth at every point of an event's life (a pending Timeout
used to claim ``triggered`` from birth), interrupts and condition events
must actually detach from the events they leave behind, and the same
program must replay byte-identically.
"""

import json
from pathlib import Path

import pytest

import repro.sim.core as core_mod

from repro.mq import MessageQueue
from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
    cancel_wait,
    run_sync,
)
from repro.sim.resources import Resource


@pytest.fixture
def env():
    return Environment()


class TestTimeoutTriggeredHonesty:
    """A pending Timeout is not triggered until the clock reaches it."""

    def test_fresh_timeout_not_triggered(self, env):
        t = Timeout(env, 5.0, value=3)
        assert not t.triggered
        assert not t.processed

    def test_fresh_timeout_value_and_ok_raise(self, env):
        t = Timeout(env, 5.0, value=3)
        with pytest.raises(SimulationError):
            _ = t.value
        with pytest.raises(SimulationError):
            _ = t.ok

    def test_not_triggered_until_clock_reaches_fire_time(self, env):
        t = Timeout(env, 5.0, value=3)
        env.timeout(2.0)
        env.run(until=2.0)
        assert not t.triggered
        env.run(until=t)
        assert env.now == 5.0
        assert t.triggered
        assert t.processed
        assert t.ok
        assert t.value == 3

    def test_zero_delay_timeout_pending_before_run(self, env):
        t = env.timeout(0.0, value="v")
        assert not t.triggered
        env.run()
        assert t.triggered and t.value == "v"

    def test_succeed_on_pending_timeout_rejected(self, env):
        t = env.timeout(5.0)
        with pytest.raises(SimulationError):
            t.succeed(1)

    def test_fail_on_pending_timeout_rejected(self, env):
        t = env.timeout(5.0)
        with pytest.raises(SimulationError):
            t.fail(RuntimeError("no"))

    def test_none_value_timeout_still_reports_triggered(self, env):
        # triggered must flip even for the default value=None payload.
        t = env.timeout(1.0)
        env.run()
        assert t.triggered
        assert t.ok
        assert t.value is None


class TestStateTransitions:
    def test_event_triggered_before_processed(self, env):
        ev = env.event()
        ev.succeed(1)
        assert ev.triggered
        assert not ev.processed
        env.run()
        assert ev.processed

    def test_failed_event_transitions(self, env):
        ev = env.event()
        ev.fail(ValueError("x"))
        assert ev.triggered
        assert not ev.ok
        assert not ev.processed
        env.run()
        assert ev.processed

    def test_process_transitions(self, env):
        def proc():
            yield env.timeout(1.0)
            return "r"

        p = env.process(proc())
        assert not p.triggered
        assert p.is_alive
        env.run()
        assert p.triggered
        assert p.processed
        assert not p.is_alive
        assert p.value == "r"

    def test_late_callback_on_processed_event_runs_next_cycle(self, env):
        ev = env.event()
        ev.succeed("x")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.add_callback(lambda e: seen.append(e.value + "2"))
        assert seen == []  # deferred, not synchronous
        env.run()
        assert seen == ["x", "x2"]


class TestInterruptDetach:
    def test_rewait_on_detached_event_resumes_once(self, env):
        """After an interrupt, waiting on the *same* event again must
        reuse the stale (marked) callback — not register a duplicate that
        would double-resume the process."""
        resumes = []

        def victim():
            t = env.timeout(10.0, value="fired")
            try:
                yield t
                resumes.append("first-wait")
            except Interrupt:
                resumes.append("interrupted")
            got = yield t  # re-wait on the exact event we detached from
            resumes.append(got)
            return env.now

        p = env.process(victim())

        def killer():
            yield env.timeout(1.0)
            p.interrupt()

        env.process(killer())
        assert env.run(until=p) == 10.0
        assert resumes == ["interrupted", "fired"]

    def test_detached_event_fires_into_nothing(self, env):
        """The abandoned event still fires for other waiters, but not for
        the interrupted process."""
        log = []
        shared = env.timeout(5.0, value="shared")

        def bystander():
            got = yield shared
            log.append(("bystander", got, env.now))

        def victim():
            try:
                yield shared
                log.append(("victim-wrong", env.now))
            except Interrupt:
                log.append(("victim-interrupted", env.now))
            yield env.timeout(100.0)

        env.process(bystander())
        p = env.process(victim())

        def killer():
            yield env.timeout(1.0)
            p.interrupt()

        env.process(killer())
        env.run(until=50.0)
        assert ("bystander", "shared", 5.0) in log
        assert ("victim-interrupted", 1.0) in log
        assert not any(entry[0] == "victim-wrong" for entry in log)

    def test_repeated_interrupts_detach_each_wait(self, env):
        hits = []

        def victim():
            for _ in range(4):
                try:
                    yield env.timeout(1000.0)
                except Interrupt as intr:
                    hits.append((intr.cause, env.now))
            return len(hits)

        p = env.process(victim())

        def killer():
            for k in range(4):
                yield env.timeout(1.0)
                p.interrupt(k)

        env.process(killer())
        assert env.run(until=p) == 4
        assert hits == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_interrupt_while_waiting_on_shared_event_list(self, env):
        """Detach when the victim shares the event's callback list with
        other waiters (list-shaped callbacks, not the single-callback
        fast path)."""
        shared = env.timeout(5.0, value="s")
        order = []

        def waiter(tag):
            got = yield shared
            order.append((tag, got))

        def victim():
            try:
                yield shared
                order.append(("victim", "wrong"))
            except Interrupt:
                order.append(("victim", "interrupted"))

        env.process(waiter("a"))
        p = env.process(victim())
        env.process(waiter("b"))

        def killer():
            yield env.timeout(1.0)
            p.interrupt()

        env.process(killer())
        env.run()
        assert ("victim", "interrupted") in order
        assert ("a", "s") in order and ("b", "s") in order
        assert ("victim", "wrong") not in order


def _live_callbacks(event):
    """The callbacks still registered on a pending event, as a list."""
    callbacks = event.callbacks
    if callbacks is None:
        return []
    if type(callbacks) is list:
        return list(callbacks)
    return [callbacks]


class TestConditionDetach:
    def test_anyof_detaches_losers(self, env):
        winner = env.timeout(1.0, value="w")
        losers = [env.timeout(100.0) for _ in range(3)]
        cond = AnyOf(env, [winner] + losers)
        for ev in losers:
            assert _live_callbacks(ev), "child registration missing"
        env.run(until=cond)
        for ev in losers:
            assert _live_callbacks(ev) == [], (
                "AnyOf left its callback on a losing child")
        assert cond.value == (0, "w")

    def test_anyof_losers_remain_usable(self, env):
        winner = env.timeout(1.0, value="w")
        loser = env.timeout(2.0, value="l")
        AnyOf(env, [winner, loser])

        def late():
            got = yield loser
            return (got, env.now)

        assert run_sync(env, late()) == ("l", 2.0)

    def test_allof_fail_fast_detaches_remaining(self, env):
        bad = env.event()
        slow = env.timeout(100.0)
        cond = AllOf(env, [slow, bad])

        def failer():
            yield env.timeout(1.0)
            bad.fail(IOError("disk"))

        env.process(failer())
        env.run(until=2.0)
        assert cond.triggered and not cond.ok
        assert _live_callbacks(slow) == [], (
            "failed AllOf left its callback on a pending child")

    def test_anyof_detach_with_shared_waiters(self, env):
        """Detach must remove only the condition's own callback."""
        winner = env.timeout(1.0, value="w")
        loser = env.timeout(3.0, value="l")
        seen = []
        loser.add_callback(lambda e: seen.append(("direct", e.value)))
        cond = AnyOf(env, [winner, loser])
        env.run(until=cond)
        assert len(_live_callbacks(loser)) == 1
        env.run()
        assert seen == [("direct", "l")]


class TestSameSeedDeterminism:
    """The same program replays byte-identically, including through
    interrupts, shared resources, and condition events."""

    @staticmethod
    def _mixed_workload():
        env = Environment()
        res = Resource(env, capacity=2, name="cpu")
        box = MessageQueue(env, name="box")
        trace = []

        def worker(i):
            for h in range(4):
                yield from res.use(0.01 * ((i + h) % 3 + 1))
                trace.append(("work", i, h, round(env.now, 9)))
            box.publish(i)

        def racer(i):
            fast = env.timeout(0.005 * (i + 1), value="fast")
            slow = env.timeout(10.0, value="slow")
            idx, value = yield AnyOf(env, [fast, slow])
            trace.append(("race", i, idx, value, round(env.now, 9)))
            yield AllOf(env, [env.timeout(0.001), env.timeout(0.002)])
            trace.append(("joined", i, round(env.now, 9)))

        def victim():
            try:
                yield env.timeout(1000.0)
            except Interrupt as intr:
                trace.append(("interrupted", intr.cause, round(env.now, 9)))

        def collector():
            for _ in range(3):
                item = yield box.get()
                trace.append(("collected", item, round(env.now, 9)))

        victims = [env.process(victim()) for _ in range(2)]

        def killer():
            yield env.timeout(0.02)
            for k, v in enumerate(victims):
                v.interrupt(k)

        for i in range(3):
            env.process(worker(i))
            env.process(racer(i))
        env.process(collector())
        env.process(killer())
        env.run()
        return trace, env.processed_events

    def test_trace_and_event_count_identical(self):
        (trace_a, events_a) = self._mixed_workload()
        (trace_b, events_b) = self._mixed_workload()
        assert events_a == events_b
        assert json.dumps(trace_a) == json.dumps(trace_b)

    def test_event_count_is_stable_constant(self):
        """Pin the processed-event count: any kernel change that shifts
        scheduling semantics (extra/fewer heap entries, reordering) moves
        this number and must be a conscious decision."""
        _, events = self._mixed_workload()
        _, events_again = self._mixed_workload()
        assert events == events_again
        assert events > 0


class TestOneResumeBody:
    """The generator is advanced in exactly one place (``_resume``): the
    bootstrap and interrupt delivery enter it with a stand-in outcome.
    The event counts below are literals because ``baseline_kernel.json``
    counts events: a stand-in must not cost or save a heap entry."""

    def test_generator_is_advanced_in_one_place(self):
        source = Path(core_mod.__file__).read_text()
        assert source.count("_generator.send(") == 1
        assert source.count("_generator.throw(") == 1
        assert not hasattr(core_mod.Process, "_advance")
        assert not hasattr(core_mod, "_start_process")

    def test_bootstrap_heap_entry_is_the_resume_callback(self, env):
        def body():
            yield env.timeout(1.0)

        proc = env.process(body())
        (_time, _key, fn, _arg), = env._heap
        assert fn is proc._resume_cb
        # Not waiting on anything a caller could cancel, before or after.
        assert proc.waiting_on is None
        env.step()
        assert isinstance(proc.waiting_on, Timeout)

    def test_interrupt_before_bootstrap(self, env):
        started = []

        def body():
            started.append(True)
            yield env.timeout(1.0)

        proc = env.process(body())
        proc.interrupt("early")
        env.run()
        assert started == []
        assert not proc.ok
        assert isinstance(proc.exception, Interrupt)
        assert proc.exception.cause == "early"
        assert proc.waiting_on is None
        # Interrupt delivery, the now-stale bootstrap entry, the process
        # event itself.
        assert (env.processed_events, env.now) == (3, 0.0)

    def test_interrupt_while_waiting(self, env):
        log = []

        def body():
            try:
                yield env.timeout(10.0)
            except Interrupt as intr:
                log.append((intr.cause, env.now))
            yield env.timeout(1.0)
            return "done"

        proc = env.process(body())

        def killer():
            yield env.timeout(2.0)
            proc.interrupt("k")

        env.process(killer())
        env.run()
        assert log == [("k", 2.0)]
        assert proc.value == "done"
        assert (env.processed_events, env.now) == (8, 10.0)

    def test_rewait_on_the_detached_event(self, env):
        log = []
        shared = env.event()

        def body():
            try:
                yield shared
            except Interrupt:
                log.append(("interrupted", env.now))
            value = yield shared
            log.append(("resumed", value, env.now))
            return value

        proc = env.process(body())

        def driver():
            yield env.timeout(1.0)
            proc.interrupt()
            yield env.timeout(1.0)
            shared.succeed("s")

        env.process(driver())
        env.run()
        assert log == [("interrupted", 1.0), ("resumed", "s", 2.0)]
        assert proc.value == "s"
        assert (env.processed_events, env.now) == (8, 2.0)

    def test_interrupt_of_a_finished_process(self, env):
        def body():
            yield env.timeout(1.0)
            return 7

        proc = env.process(body())
        env.run()
        assert env.processed_events == 3
        proc.interrupt("late")
        env.run()
        assert proc.value == 7
        assert (env.processed_events, env.now) == (3, 1.0)


#: The two spellings of a delay.  Every count below is the literal the
#: ``env.timeout`` spelling gave before bare delays existed: a sleep must
#: cost exactly the heap entries a Timeout did, stale wake-ups included.
_SPELLINGS = {"delay": lambda env, d: d,
              "timeout": lambda env, d: env.timeout(d)}


@pytest.fixture(params=sorted(_SPELLINGS))
def nap(request):
    return _SPELLINGS[request.param]


class TestSleep:
    """``yield <float>`` re-enters ``_resume`` straight from the heap."""

    def test_sleep_allocates_no_event_and_exposes_nothing_to_cancel(self, env):
        def body():
            yield 1.5
            return env.now

        proc = env.process(body())
        env.step()
        (time, seq, fn, token), = env._heap
        assert (time, fn, token) == (1.5, proc._resume_cb, seq)
        assert proc.is_alive and proc.waiting_on is None
        assert core_mod.cancel_wait(proc.waiting_on) is False
        env.run()
        assert proc.value == 1.5
        assert env.processed_events == 3

    def test_interrupt_during_a_sleep(self, env, nap):
        log = []

        def body():
            try:
                yield nap(env, 10.0)
            except Interrupt as intr:
                log.append((intr.cause, env.now))
            yield nap(env, 1.0)
            return "done"

        def killer():
            yield nap(env, 2.0)
            proc.interrupt("k")

        proc = env.process(body())
        env.process(killer())
        env.run()
        assert log == [("k", 2.0)]
        assert proc.value == "done"
        assert (env.processed_events, env.now) == (8, 10.0)

    def test_two_interrupts_while_the_first_stale_wakeup_is_pending(
            self, env, nap):
        log = []

        def body():
            for _ in range(2):
                try:
                    yield nap(env, 10.0)
                except Interrupt as intr:
                    log.append((intr.cause, env.now))
            return "done"

        def killer():
            yield nap(env, 1.0)
            proc.interrupt("first")
            yield nap(env, 1.0)
            proc.interrupt("second")

        proc = env.process(body())
        env.process(killer())
        env.run(until=proc)
        assert log == [("first", 1.0), ("second", 2.0)]
        assert (env.processed_events, env.now) == (8, 2.0)
        # Both wake-ups (t=10, t=11) are still on the heap, and stale.
        env.run()
        assert proc.value == "done"
        assert (env.processed_events, env.now) == (10, 11.0)

    def test_stale_wakeup_arriving_during_the_next_sleep_is_ignored(
            self, env, nap):
        log = []

        def body():
            try:
                yield nap(env, 5.0)
            except Interrupt:
                log.append(("interrupted", env.now))
            yield nap(env, 10.0)     # the t=5 wake-up lands inside this
            log.append(("woke", env.now))

        def killer():
            yield nap(env, 2.0)
            proc.interrupt()

        proc = env.process(body())
        env.process(killer())
        env.run()
        assert log == [("interrupted", 2.0), ("woke", 12.0)]
        assert (env.processed_events, env.now) == (8, 12.0)

    def test_interrupt_beats_a_wakeup_at_the_same_instant(self, env, nap):
        log = []

        def killer():
            yield nap(env, 2.0)
            proc.interrupt("tie")

        def body():
            try:
                yield nap(env, 2.0)
                log.append(("woke", env.now))
            except Interrupt as intr:
                log.append((intr.cause, env.now))

        env.process(killer())       # lower sequence number: wakes first
        proc = env.process(body())
        env.run()
        assert log == [("tie", 2.0)]
        assert (env.processed_events, env.now) == (7, 2.0)

    def test_sleeps_and_timeouts_share_one_sequence(self, env):
        order = []

        def sleeper(tag, spelling):
            yield _SPELLINGS[spelling](env, 1.0)
            order.append(tag)

        for tag, spelling in enumerate(["delay", "timeout", "delay",
                                        "timeout"]):
            env.process(sleeper(tag, spelling))
        env.run()
        assert order == [0, 1, 2, 3]
        assert env._seq == 12


#: The two spellings of a request for a slot.  Every literal below is
#: what ``yield res.acquire()`` gave before parks existed (the second
#: cancel in ``test_waiting_on_and_cancel_wait`` excepted: it used to
#: release a second time).
_GRABS = {"park": lambda res: res,
          "acquire": lambda res: res.acquire()}


@pytest.fixture(params=sorted(_GRABS))
def grab(request):
    return _GRABS[request.param]


def _counters(env, res):
    return (env.processed_events, env._seq, env.now, res.in_use,
            res.queue_length, res.total_acquires, res.total_wait_time,
            res.peak_queue)


class TestPark:
    """``yield <Resource>`` parks the process on the resource: the grant
    re-enters ``_resume`` straight from the heap."""

    @staticmethod
    def _holder(res, grab, hold):
        yield grab(res)
        yield hold
        res.release()

    def test_heap_entry_and_waiter_entry_shape(self, env):
        res = Resource(env, capacity=1)

        def body():
            yield res
            yield 1.0
            res.release()

        first, second = env.process(body()), env.process(body())
        env.step()
        env.step()
        # A free slot: the wake-up is already on the heap, its token the
        # negated sequence number (no sleep token is negative).
        (time, seq, fn, token), = env._heap
        assert (time, fn, token) == (0.0, first._resume_cb, -seq)
        assert first._waiting_on is token
        # No free slot: the process waits on its own waiter entry.
        (entry,) = res._waiters
        assert entry == (second, 0.0) and second._waiting_on is entry
        env.run(until=0.5)
        assert env._heap[0][0] == 1.0       # only the first's sleep
        env.step()                          # ... whose end hands over
        (time, seq, _fn, token), = [entry for entry in env._heap
                                    if entry[2] is second._resume_cb]
        assert (time, token) == (1.0, -seq)
        assert second._waiting_on is token and not res._waiters
        env.run()
        assert _counters(env, res) == (8, 8, 2.0, 0, 0, 2, 1.0, 1)

    def test_interrupted_while_queued(self, env, grab):
        res = Resource(env, capacity=1)
        log = []

        def victim():
            try:
                yield grab(res)
                log.append(("granted", env.now))
            except Interrupt as intr:
                log.append((intr.cause, env.now))
            yield 1.0
            return "done"

        def killer():
            yield 2.0
            log.append(("cancel", cancel_wait(proc.waiting_on)))
            proc.interrupt("k")

        env.process(self._holder(res, grab, 5.0))
        proc = env.process(victim())
        env.process(killer())
        env.run()
        assert log == [("cancel", True), ("k", 2.0)]
        assert proc.value == "done"
        assert _counters(env, res) == (11, 11, 5.0, 0, 0, 2, 0.0, 1)

    def test_interrupted_while_granted_but_not_yet_resumed(self, env, grab):
        res = Resource(env, capacity=1)
        log = []

        def victim():
            try:
                yield grab(res)
                log.append(("granted", env.now))
            except Interrupt as intr:
                log.append((intr.cause, env.now, res.in_use))
            yield 1.0
            return "done"

        def killer():
            log.append(("in_use", res.in_use))
            log.append(("cancel", cancel_wait(proc.waiting_on)))
            proc.interrupt("k")
            yield 0.0

        proc = env.process(victim())    # takes the slot at its first yield
        env.process(killer())           # runs before the grant's wake-up
        env.run()
        assert log == [("in_use", 1), ("cancel", True), ("k", 0.0, 0)]
        assert proc.value == "done"
        assert _counters(env, res) == (8, 8, 1.0, 0, 0, 1, 0.0, 0)

    def test_interrupt_beats_a_handover_at_the_same_instant(self, env, grab):
        res = Resource(env, capacity=1)
        log = []

        def victim():
            try:
                yield grab(res)
                log.append(("granted", env.now))
            except Interrupt as intr:
                log.append((intr.cause, env.now, res.in_use))

        def killer():
            yield 1.0
            yield 1.0           # wakes at t=2 after the holder does
            log.append(("handed over", res.in_use, res.queue_length))
            log.append(("cancel", cancel_wait(proc.waiting_on)))
            proc.interrupt("tie")

        env.process(self._holder(res, grab, 2.0))   # releases first at t=2
        proc = env.process(victim())
        env.process(killer())
        env.run()
        # The slot the victim never consumed went back with the cancel;
        # its wake-up was popped, counted and dropped.
        assert log == [("handed over", 1, 0), ("cancel", True),
                       ("tie", 2.0, 0)]
        assert _counters(env, res) == (12, 12, 2.0, 0, 0, 2, 2.0, 1)

    def test_park_again_past_a_stale_grant(self, env, grab):
        res = Resource(env, capacity=1)
        log = []

        def victim():
            try:
                yield grab(res)
                log.append("first grant")
            except Interrupt:
                log.append("interrupted")
            yield grab(res)     # the first grant's wake-up is still queued
            log.append("second grant")
            res.release()

        def killer():
            cancel_wait(proc.waiting_on)
            proc.interrupt()
            yield 0.0           # wakes between the two grants' wake-ups
            log.append("killer woke")

        proc = env.process(victim())
        env.process(killer())
        env.run()
        assert log == ["interrupted", "killer woke", "second grant"]
        assert _counters(env, res) == (8, 8, 0.0, 0, 0, 2, 0.0, 0)

    def test_interrupt_without_cancel_wait_leaks_but_corrupts_nothing(
            self, env, grab):
        res = Resource(env, capacity=1)
        log = []

        def victim():
            try:
                yield grab(res)
                log.append(("granted", env.now))
            except Interrupt:
                log.append(("interrupted", env.now))
            yield grab(res)     # queues again, behind its own stale entry
            log.append(("granted", env.now))

        def killer():
            yield 1.0
            proc.interrupt()    # no cancel_wait: the entry stays queued

        env.process(self._holder(res, grab, 5.0))
        proc = env.process(victim())
        env.process(killer())
        env.run()
        # The hand-over at t=5 went to the abandoned request (its wait is
        # accounted, its slot never released); the live one is untouched.
        assert log == [("interrupted", 1.0)]
        assert proc.is_alive
        assert _counters(env, res) == (10, 10, 5.0, 1, 1, 3, 5.0, 2)
        assert cancel_wait(proc.waiting_on) is True
        assert cancel_wait(proc.waiting_on) is False
        assert res.queue_length == 0

    def test_waiting_on_and_cancel_wait(self, env, grab):
        res = Resource(env, capacity=1)

        def body():
            yield grab(res)
            yield 1.0
            res.release()

        first, second = env.process(body()), env.process(body())
        env.step()
        env.step()      # both bootstraps: one granted, one queued
        seen = []
        for proc in (second, first):
            seen.append((proc.waiting_on is not None,
                         cancel_wait(proc.waiting_on),
                         cancel_wait(proc.waiting_on),
                         res.in_use, res.queue_length))
        # Each wait is reclaimed once: the queued entry is withdrawn, the
        # granted slot goes back, and a second cancel finds nothing.
        assert seen == [(True, True, False, 1, 0), (True, True, False, 0, 0)]
        env.step()      # the first's wake-up still arrives: it sleeps now
        assert first.waiting_on is None
        assert cancel_wait(first.waiting_on) is False

    def test_the_handle_names_the_park(self, env):
        res = Resource(env, capacity=1, name="nic")

        def body():
            yield res

        procs = [env.process(body()) for _ in range(2)]
        env.step()
        env.step()
        for proc in procs:
            handle = proc.waiting_on
            assert (handle.resource, handle.process) == (res, proc)
            assert handle.mark is proc._waiting_on
            assert not isinstance(handle, Event)

    def test_foreign_resource_is_a_simulation_error(self, env):
        other = Resource(Environment(), capacity=1)

        def body():
            yield other

        with pytest.raises(SimulationError, match="another Environment"):
            run_sync(env, body())
        assert (other.in_use, other.total_acquires) == (0, 0)


class TestBadDelay:
    """Negative and NaN delays raise the same ValueError, for both
    spellings; NaN used to slip through ``delay < 0`` and set the clock
    to NaN."""

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), -0.5e-9])
    def test_timeout_rejects(self, env, bad):
        with pytest.raises(ValueError, match="delay"):
            env.timeout(bad)
        assert env._heap == [] and env._seq == 0

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bare_delay_raises_at_the_offending_yield(self, env, bad):
        seen = []

        def body():
            try:
                yield bad
            except ValueError as err:
                seen.append(err)
            yield 1.0
            return env.now

        assert run_sync(env, body()) == 1.0
        (err,) = seen
        assert "delay" in str(err)
        # The traceback points at the generator's own yield.
        frames = []
        tb = err.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert frames == ["body"]
        assert env.now == 1.0      # the clock never saw the bad value

    def test_uncaught_bad_delay_fails_the_process(self, env):
        def body():
            yield float("nan")

        proc = env.process(body())
        with pytest.raises(ValueError):
            env.run()
        assert isinstance(proc.exception, ValueError)
        assert env.now == 0.0

    @pytest.mark.parametrize("junk", [True, None, "1.0", 42])
    def test_non_float_non_event_is_still_a_simulation_error(self, env, junk):
        def body():
            yield junk

        with pytest.raises(SimulationError, match="must yield Event"):
            run_sync(env, body())

    def test_foreign_event_is_still_a_simulation_error(self, env):
        other = Environment()

        def body():
            yield other.timeout(1.0)

        with pytest.raises(SimulationError, match="another Environment"):
            run_sync(env, body())
