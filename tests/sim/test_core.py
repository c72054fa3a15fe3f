"""Unit tests for the DES kernel (events, processes, time, interrupts)."""

import pytest

from repro.dfs import BeeGFS
from repro.sim.core import Environment, Interrupt, SimulationError, run_sync
from repro.sim.network import Cluster
from tests.sim.conftest import pending


@pytest.fixture
def env():
    return Environment()


def _after(delay, value=None):
    """A process body that returns ``value`` ``delay`` seconds in."""
    yield delay
    return value


class TestEvent:
    def test_event_starts_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        env.run()
        assert ev.value == 42

    def test_fail_carries_exception(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        env.run()
        with pytest.raises(ValueError, match="boom"):
            _ = ev.value

    def test_double_succeed_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_after_succeed_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("late"))

    def test_fail_requires_exception_instance(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_callback_after_processed_still_runs(self, env):
        ev = env.event()
        ev.succeed("x")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["x"]


class TestTimeout:
    """``env.timeout(d)`` is the spelling of a sleep ``benchmarks/perf``
    still yields: it returns the delay itself."""

    def test_timeout_advances_clock(self, env):
        def proc():
            yield env.timeout(5.0)

        run_sync(env, proc())
        assert env.now == 5.0

    def test_timeout_value_passthrough(self, env):
        # The value passed through is the delay, as the float a sleep needs.
        assert env.timeout(1) == 1.0 and type(env.timeout(1)) is float
        assert env._heap == [] and env._seq == 0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_at_now(self, env):
        def proc():
            yield env.timeout(0.0)
            return env.now

        assert run_sync(env, proc()) == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(d):
            yield env.timeout(d)
            order.append(d)

        for d in (3.0, 1.0, 2.0):
            env.process(proc(d))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo_tiebreak(self, env):
        order = []

        def proc(i):
            yield env.timeout(1.0)
            order.append(i)

        for i in range(5):
            env.process(proc(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_process_returns_value(self, env):
        def proc():
            yield 1.0
            return "result"

        assert run_sync(env, proc()) == "result"
        assert env.now == 1.0

    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_is_error(self, env):
        def proc():
            yield 42

        with pytest.raises(SimulationError, match="must yield Event"):
            run_sync(env, proc())

    def test_processes_wait_on_each_other(self, env):
        def child():
            yield 2.0
            return 7

        def parent():
            value = yield env.process(child())
            return value + 1

        assert run_sync(env, parent()) == 8

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield 1.0
            raise KeyError("inner")

        def parent():
            yield env.process(child())

        with pytest.raises(KeyError, match="inner"):
            run_sync(env, parent())

    def test_subgenerator_via_yield_from(self, env):
        def sub(x):
            yield 1.0
            return x * 2

        def main():
            a = yield from sub(3)
            b = yield from sub(a)
            return b

        assert run_sync(env, main()) == 12
        assert env.now == 2.0

    def test_failed_event_throws_into_process(self, env):
        ev = env.event()

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc())
        ev.fail(RuntimeError("wire error"))
        assert env.run(until=p) == "caught wire error"

    def test_is_alive_transitions(self, env):
        def proc():
            yield 1.0

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim():
            try:
                yield 100.0
            except Interrupt as intr:
                return ("interrupted", intr.cause, env.now)

        p = env.process(victim())

        def killer():
            yield 5.0
            p.interrupt("node-crash")

        env.process(killer())
        assert env.run(until=p) == ("interrupted", "node-crash", 5.0)

    def test_interrupt_finished_process_is_noop(self, env):
        def quick():
            yield 1.0
            return "ok"

        p = env.process(quick())
        env.run()
        p.interrupt("too late")  # must not raise
        assert p.value == "ok"

    def test_interrupted_process_can_continue(self, env):
        def victim():
            try:
                yield 100.0
            except Interrupt:
                pass
            yield 1.0
            return env.now

        p = env.process(victim())

        def killer():
            yield 2.0
            p.interrupt()

        env.process(killer())
        assert env.run(until=p) == 3.0

    def test_interrupt_before_start_cancels_cleanly(self, env):
        """Interrupting a process whose generator never ran must not blow
        up at the generator's first line; the process dies with the
        Interrupt as its outcome."""
        def never_started():
            yield 1.0
            return "unreachable"

        p = env.process(never_started())
        p.interrupt("early-kill")  # before env.run: bootstrap pending
        env.run()
        assert not p.is_alive
        assert isinstance(p.exception, Interrupt)
        assert p.exception.cause == "early-kill"

    def test_original_event_does_not_resume_after_interrupt(self, env):
        resumed = []

        def victim():
            try:
                yield 5.0
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
            yield 10.0
            resumed.append("end")

        p = env.process(victim())

        def killer():
            yield 1.0
            p.interrupt()

        env.process(killer())
        env.run()
        assert resumed == ["interrupt", "end"]


class TestConditions:
    def test_all_of_collects_values(self, env):
        events = [env.process(_after(d, d)) for d in (3.0, 1.0, 2.0)]

        def proc():
            values = yield env.all_of(events)
            return values

        assert run_sync(env, proc()) == [3.0, 1.0, 2.0]
        assert env.now == 3.0

    def test_all_of_empty_is_immediate(self, env):
        def proc():
            values = yield env.all_of([])
            return values

        assert run_sync(env, proc()) == []

    def test_all_of_fails_fast(self, env):
        bad = env.event()

        def failer():
            yield 1.0
            bad.fail(IOError("disk"))

        env.process(failer())

        def proc():
            yield env.all_of([env.process(_after(50.0)), bad])

        with pytest.raises(IOError):
            run_sync(env, proc())
        assert env.now == 1.0


class TestJoin:
    """``env.all_of`` pinned to the schedule the ``AllOf`` class gave:
    every literal below was recorded with it — events processed, the
    final sequence number, the clock and the joined values."""

    @staticmethod
    def _joiner(env, children):
        values = yield env.all_of(children)
        return values, env.now

    def _pin(self, env, children):
        proc = env.process(self._joiner(env, children))
        env.run()
        return proc.value, env.processed_events, env._seq, env.now

    def test_children_finishing_at_distinct_times(self, env):
        children = [env.process(_after(d, d)) for d in (3.0, 1.0, 2.0)]
        assert self._pin(env, children) == (([3.0, 1.0, 2.0], 3.0),
                                            12, 12, 3.0)

    def test_children_finishing_at_one_instant(self, env):
        children = [env.process(_after(1.0, v)) for v in "abc"]
        assert self._pin(env, children) == ((["a", "b", "c"], 1.0),
                                            12, 12, 1.0)

    def test_a_child_processed_before_the_join(self, env):
        done = env.process(_after(0.5, "early"))
        env.run()
        assert (env.processed_events, env._seq, env.now) == (3, 3, 0.5)
        late = env.process(_after(1.0, "late"))
        # The processed child's callback is deferred through the heap.
        assert self._pin(env, [done, late]) == ((["early", "late"], 1.5),
                                                10, 10, 1.5)

    def test_an_empty_join(self, env):
        assert self._pin(env, []) == (([], 0.0), 3, 3, 0.0)

    def test_a_failing_child_fails_the_join_at_its_instant(self, env):
        def bad(delay, msg):
            yield delay
            raise IOError(msg)

        def guarded(children):
            try:
                yield env.all_of(children)
            except IOError as err:
                return str(err), env.now

        children = [env.process(_after(5.0, "slow")),
                    env.process(bad(2.0, "second")),
                    env.process(bad(1.0, "first"))]
        proc = env.process(guarded(children))
        # Each child's error leaves run(); the failed child is already
        # scheduled, so running again carries on from that instant.
        raised = []
        while True:
            try:
                env.run()
                break
            except IOError as err:
                raised.append((str(err), env.now))
        assert raised == [("first", 1.0), ("second", 2.0)]
        assert proc.value == ("first", 1.0)
        assert (env.processed_events, env._seq, env.now) == (12, 12, 5.0)

    def test_a_striped_write_and_read_join_three_chunks(self):
        cluster = Cluster()
        fs = BeeGFS(cluster, n_mds=1, n_data=3)
        client = fs.client(cluster.add_node("client0"), uid=1000, gid=1000)
        env = cluster.env

        def setup():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")

        run_sync(env, setup())
        assert (env.processed_events, env._seq) == (22, 22)
        wrote = run_sync(env, client.write("/w/f", 0, 3 * 512 * 1024))
        assert (wrote, env.processed_events, env._seq, env.now) == (
            1572864, 75, 75, 0.0019679201300726997)
        assert [ds.bytes_written for ds in fs.data_servers] == [524288] * 3
        got = run_sync(env, client.read("/w/f", 100_000, 1_200_000))
        assert (got, env.processed_events, env._seq, env.now) == (
            1200000, 115, 115, 0.0026192614462110736)
        assert client.rpcs_sent == 15


class TestEnvironmentRun:
    def test_run_until_time_stops_clock(self, env):
        fired = []

        def proc(d):
            yield d
            fired.append(d)

        env.process(proc(1.0))
        env.process(proc(10.0))
        env.run(until=5.0)
        assert fired == [1.0]
        assert env.now == 5.0

    def test_run_until_past_time_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_run_until_nan_rejected(self, env):
        env.process(_after(1.0))
        with pytest.raises(ValueError, match="until=nan") as info:
            env.run(until=float("nan"))
        assert "past" not in str(info.value)
        assert (env.now, env.processed_events, len(pending(env))) == (0.0, 0, 1)
        env.run()
        assert env.now == 1.0

    def test_an_exception_mid_slice_leaves_no_stop(self):
        """The perf driver's shape: a callback on the last op raises out
        of a time slice.  The slice's stop entry goes with it, so the
        rest of the run is exactly the uninterrupted one."""
        class Finished(Exception):
            pass

        def finish(_event):
            raise Finished

        def start(env, raising):
            done = env.process(_after(1.0))
            if raising:
                done.add_callback(finish)
            env.process(_after(3.0))

        env = Environment()
        start(env, raising=True)
        with pytest.raises(Finished):
            env.run(until=5.0)
        assert [entry[0] for entry in env._heap] == [3.0]
        assert (env.now, env.processed_events) == (1.0, 4)
        env.run()
        assert (env.now, env.processed_events, env._seq) == (3.0, 6, 6)
        whole = Environment()
        start(whole, raising=False)
        whole.run()
        assert (whole.now, whole.processed_events, whole._seq) == (3.0, 6, 6)

    def test_run_to_exhaustion(self, env):
        env.process(_after(2.5))
        env.run()
        assert env.now == 2.5
        assert env.peek() == float("inf")

    def test_deadlock_detection(self, env):
        stuck = env.event()

        def proc():
            yield stuck

        with pytest.raises(SimulationError, match="deadlock"):
            run_sync(env, proc())

    def test_step_on_empty_heap_rejected(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_event_count_increments(self, env):
        before = env.processed_events
        env.process(_after(1.0))
        env.run()
        assert env.processed_events > before

    def test_determinism_same_program_same_trace(self):
        def trace():
            env = Environment()
            out = []

            def proc(i):
                yield 0.5 * (i % 3)
                out.append((i, env.now))
                yield 1.0
                out.append((i, env.now))

            for i in range(10):
                env.process(proc(i))
            env.run()
            return out

        assert trace() == trace()
