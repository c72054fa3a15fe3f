"""Unit tests for Resource and Barrier."""

import pytest

from repro.sim.core import Environment, SimulationError, cancel_wait
from repro.sim.resources import Barrier, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        res = Resource(env, capacity=2)
        ev = res.acquire()
        assert ev.triggered
        assert res.in_use == 1

    def test_fifo_queueing_over_capacity(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(i):
            yield res.acquire()
            order.append((i, env.now))
            yield env.timeout(1.0)
            res.release()

        for i in range(3):
            env.process(worker(i))
        env.run()
        assert order == [(0, 0.0), (1, 1.0), (2, 2.0)]

    def test_release_idle_rejected(self, env):
        res = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_use_helper_serializes(self, env):
        res = Resource(env, capacity=1)
        done = []

        def worker(i):
            yield from res.use(2.0)
            done.append(env.now)

        for i in range(3):
            env.process(worker(i))
        env.run()
        assert done == [2.0, 4.0, 6.0]

    def test_queue_length_tracks_waiters(self, env):
        res = Resource(env, capacity=1)
        res.acquire()
        res.acquire()
        res.acquire()
        assert res.queue_length == 2

    def test_utilization_full_load(self, env):
        res = Resource(env, capacity=1)

        def worker():
            yield from res.use(10.0)

        env.process(worker())
        env.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_utilization_half_load(self, env):
        res = Resource(env, capacity=2)

        def worker():
            yield from res.use(10.0)

        env.process(worker())
        env.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_utilization_not_diluted_for_mid_run_resource(self, env):
        """Regression: utilization used to divide by env.now from time
        zero, so a resource constructed mid-run looked mostly idle even
        while 100% busy.  It must divide by the resource's own lifetime
        (now - created_at)."""
        def setup():
            yield env.timeout(90.0)

        env.process(setup())
        env.run()
        res = Resource(env, capacity=1)
        assert res.created_at == pytest.approx(90.0)

        def worker():
            yield from res.use(10.0)

        env.process(worker())
        env.run()
        # Busy for its entire 10s lifetime: 1.0, not 10/100 = 0.1.
        assert res.utilization() == pytest.approx(1.0)

    def test_peak_queue_tracks_max_waiters(self, env):
        res = Resource(env, capacity=1)

        def worker():
            yield from res.use(1.0)

        for _ in range(4):
            env.process(worker())
        env.run()
        assert res.peak_queue == 3

    def test_wait_time_accounting(self, env):
        res = Resource(env, capacity=1)

        def worker():
            yield from res.use(3.0)

        env.process(worker())
        env.process(worker())
        env.run()
        assert res.total_wait_time == pytest.approx(3.0)
        assert res.total_acquires == 2

    def test_cancelled_waiter_takes_its_request_time_with_it(self, env):
        """Waits are accounted at hand-over from the request time kept
        beside each waiter; cancelling one must not shift the others'."""
        res = Resource(env, capacity=1)
        observed = []
        res._wait_observe = observed.append
        res.acquire()                               # holder, t=0
        env.run(until=1.0)
        first = res.acquire()
        env.run(until=2.0)
        doomed = res.acquire()
        env.run(until=4.0)
        last = res.acquire()
        assert cancel_wait(doomed) and res.queue_length == 2
        env.run(until=5.0)
        res.release()
        assert first.triggered and observed == [4.0]    # 5 - 1
        env.run(until=7.0)
        res.release()
        assert last.triggered and observed == [4.0, 3.0]    # 7 - 4, not 7 - 2
        assert res.total_wait_time == 7.0
        assert not doomed.triggered

    def test_cancelling_a_granted_acquire_twice_releases_once(self, env):
        res = Resource(env, capacity=1)
        granted = res.acquire()         # holds the slot, never consumed
        queued = res.acquire()
        assert cancel_wait(granted) is True     # the slot passes on
        assert queued.triggered and (res.in_use, res.queue_length) == (1, 0)
        # Used to release again, from under the request just granted.
        assert cancel_wait(granted) is False
        assert res.in_use == 1
        env.run()
        assert cancel_wait(granted) is False    # consumed: nothing to do

    def test_handoff_keeps_capacity_invariant(self, env):
        res = Resource(env, capacity=2)
        max_seen = []

        def worker(i):
            yield res.acquire()
            max_seen.append(res.in_use)
            yield env.timeout(1.0)
            res.release()

        for i in range(6):
            env.process(worker(i))
        env.run()
        assert max(max_seen) <= 2


class TestBarrier:
    def test_parties_validation(self, env):
        with pytest.raises(ValueError):
            Barrier(env, parties=0)

    def test_releases_when_full(self, env):
        barrier = Barrier(env, parties=3)
        released = []

        def party(i, delay):
            yield env.timeout(delay)
            gen = yield barrier.arrive()
            released.append((i, env.now, gen))

        env.process(party(0, 1.0))
        env.process(party(1, 2.0))
        env.process(party(2, 3.0))
        env.run()
        assert released == [(0, 3.0, 0), (1, 3.0, 0), (2, 3.0, 0)]

    def test_reusable_generations(self, env):
        barrier = Barrier(env, parties=2)
        gens = []

        def party(i):
            for _ in range(3):
                gen = yield barrier.arrive()
                gens.append(gen)
                yield env.timeout(1.0)

        env.process(party(0))
        env.process(party(1))
        env.run()
        assert sorted(gens) == [0, 0, 1, 1, 2, 2]

    def test_single_party_never_blocks(self, env):
        barrier = Barrier(env, parties=1)
        ev = barrier.arrive()
        assert ev.triggered

    def test_n_waiting(self, env):
        barrier = Barrier(env, parties=3)
        barrier.arrive()
        assert barrier.n_waiting == 1
        barrier.arrive()
        assert barrier.n_waiting == 2
        barrier.arrive()
        assert barrier.n_waiting == 0
