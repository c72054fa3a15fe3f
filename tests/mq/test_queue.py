"""Unit tests for the pub/sub message queue substrate."""

import pytest

from repro.mq import MessageQueue, QueueClosed, QueueGroup
from repro.sim.core import Environment, Interrupt, cancel_wait, run_sync


@pytest.fixture
def env():
    return Environment()


class TestMessageQueue:
    def test_publish_then_get(self, env):
        q = MessageQueue(env, "q")
        q.publish({"op": "create"})

        def sub():
            msg = yield q
            return msg

        assert run_sync(env, sub()) == {"op": "create"}

    def test_fifo_order(self, env):
        q = MessageQueue(env, "q")
        for i in range(5):
            q.publish(i)
        out = []

        def sub():
            for _ in range(5):
                out.append((yield q))

        env.process(sub())
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_get_blocks_until_publish(self, env):
        q = MessageQueue(env, "q")
        got = []

        def sub():
            msg = yield q
            got.append((msg, env.now))

        def pub():
            yield 2.0
            q.publish("late")

        env.process(sub())
        env.process(pub())
        env.run()
        assert got == [("late", 2.0)]

    def test_fifo_getter_order(self, env):
        """Blocked getters are served oldest first."""
        q = MessageQueue(env, "q")
        out = []

        def sub(i):
            msg = yield q
            out.append((i, msg))

        for i in range(3):
            env.process(sub(i))

        def pub():
            yield 1.0
            for x in "abc":
                q.publish(x)

        env.process(pub())
        env.run()
        assert out == [(0, "a"), (1, "b"), (2, "c")]
        assert q.delivered == 3 and q.peak_depth == 0
        assert q.total_wait_time == 0.0

    def test_close_fails_blocked_getter(self, env):
        q = MessageQueue(env, "q")

        def sub():
            try:
                yield q
            except QueueClosed:
                return "closed"

        def closer():
            yield 1.0
            q.close()

        p = env.process(sub())
        env.process(closer())
        assert env.run(until=p) == "closed"

    def test_buffered_messages_readable_after_close(self, env):
        q = MessageQueue(env, "q")
        q.publish("a")
        q.close()

        def sub():
            first = yield q
            try:
                yield q
            except QueueClosed:
                return (first, "closed")

        assert run_sync(env, sub()) == ("a", "closed")

    def test_publish_after_close_rejected(self, env):
        q = MessageQueue(env, "q")
        q.close()
        with pytest.raises(QueueClosed):
            q.publish("x")

    def test_double_close_is_noop(self, env):
        q = MessageQueue(env, "q")
        q.close()
        q.close()
        assert q.closed

    def test_counters_and_backlog(self, env):
        q = MessageQueue(env, "q")
        q.publish("a")
        q.publish("b")
        assert q.published == 2
        assert q.backlog() == ["a", "b"]

        def sub():
            yield q

        run_sync(env, sub())
        assert q.delivered == 1
        assert len(q) == 1


def _pin(env, q):
    return (env.processed_events, env._seq, env.now, q.delivered,
            q.total_wait_time, q.peak_depth)


class TestSchedulePin:
    """Every way a get ends, pinned to the heap entries and queue counters
    it cost when a get was an ``Event``.  Written in the ``q.get()``
    spelling ``benchmarks/perf`` still yields, which both the event and the
    park implementation accept: a change that moves a sequence number, a
    pop or a counter fails here."""

    def test_blocked_get_handed_over_by_publish(self, env):
        q = MessageQueue(env, "q")
        got = []

        def sub():
            got.append(((yield q.get()), env.now))

        def pub():
            yield 1.0
            q.publish("m")

        env.process(sub())
        env.process(pub())
        env.run()
        assert got == [("m", 1.0)]
        assert _pin(env, q) == (6, 6, 1.0, 1, 0.0, 0)

    def test_get_served_from_the_buffer(self, env):
        q = MessageQueue(env, "q")
        got = []

        def sub():
            yield 1.0
            got.append(((yield q.get()), env.now))

        q.publish("m")
        env.process(sub())
        env.run()
        assert got == [("m", 1.0)]
        assert _pin(env, q) == (4, 4, 1.0, 1, 1.0, 1)

    def test_get_on_a_closed_empty_queue(self, env):
        q = MessageQueue(env, "q")
        q.close()
        seen = []

        def sub():
            try:
                yield q.get()
            except QueueClosed:
                seen.append(env.now)

        env.process(sub())
        env.run()
        assert seen == [0.0]
        assert _pin(env, q) == (3, 3, 0.0, 0, 0.0, 0)

    def test_close_wakes_two_blocked_getters(self, env):
        q = MessageQueue(env, "q")
        seen = []

        def sub(i):
            try:
                yield q.get()
            except QueueClosed:
                seen.append((i, env.now))

        def closer():
            yield 1.0
            q.close()

        env.process(sub(0))
        env.process(sub(1))
        env.process(closer())
        env.run()
        assert seen == [(0, 1.0), (1, 1.0)]
        assert (q.waiting_getters, _pin(env, q)) == \
            (0, (9, 9, 1.0, 0, 0.0, 0))

    def test_blocked_get_cancelled_then_interrupted(self, env):
        q = MessageQueue(env, "q")
        log = []

        def sub():
            try:
                log.append((yield q.get()))
            except Interrupt as intr:
                log.append((intr.cause, env.now))

        def killer():
            yield 1.0
            log.append(("cancel", cancel_wait(proc.waiting_on)))
            proc.interrupt("k")
            yield 1.0
            q.publish("m")

        proc = env.process(sub())
        env.process(killer())
        env.run()
        assert log == [("cancel", True), ("k", 1.0)]
        assert (q.waiting_getters, q.backlog(), _pin(env, q)) == \
            (0, ["m"], (7, 7, 2.0, 0, 0.0, 1))

    def test_blocked_get_interrupted_without_cancel_leaks(self, env):
        """The hand-over still goes to the abandoned get: the message is
        counted delivered and lost, and the victim's sleep is untouched."""
        q = MessageQueue(env, "q")
        log = []

        def sub():
            try:
                yield q.get()
            except Interrupt:
                log.append(("interrupted", env.now))
            yield 2.0
            log.append(("slept", env.now))

        def killer():
            yield 1.0
            proc.interrupt()
            yield 0.5
            q.publish("m")

        proc = env.process(sub())
        env.process(killer())
        env.run()
        assert log == [("interrupted", 1.0), ("slept", 3.0)]
        assert (q.waiting_getters, q.backlog(), _pin(env, q)) == \
            (0, [], (9, 9, 3.0, 1, 0.0, 0))

    @pytest.mark.parametrize("second_getter", [False, True])
    def test_granted_get_cancelled_before_it_resumes(self, env,
                                                     second_getter):
        q = MessageQueue(env, "q")
        log = []

        def sub(i):
            try:
                log.append((i, (yield q.get()), env.now))
            except Interrupt as intr:
                log.append((i, intr.cause, env.now))

        def killer():
            yield 1.0
            q.publish("a")                  # handed to 0, not yet resumed
            log.append(("cancel", cancel_wait(victim.waiting_on)))
            victim.interrupt("k")
            yield 1.0
            q.publish("b")

        def late():
            yield 1.5
            log.append(("late", (yield q.get()), env.now))

        victim = env.process(sub(0))
        if second_getter:
            env.process(sub(1))
        env.process(killer())
        env.process(late())
        env.run()
        if second_getter:
            # The message goes to the next blocked getter, still counted.
            assert log == [("cancel", True), (0, "k", 1.0), (1, "a", 1.0),
                           ("late", "b", 2.0)]
            assert _pin(env, q) == (15, 15, 2.0, 2, 0.0, 0)
        else:
            # Back to the head with a fresh stamp, the delivery un-counted.
            assert log == [("cancel", True), (0, "k", 1.0),
                           ("late", "a", 1.5)]
            assert (q.backlog(), _pin(env, q)) == \
                (["b"], (12, 12, 2.0, 1, 0.5, 1))


class TestBatchDrain:
    def test_get_batch_drains_up_to_max(self, env):
        q = MessageQueue(env, "q")
        for i in range(5):
            q.publish(i)
        assert q.get_batch(3) == [0, 1, 2]
        assert q.get_batch(10) == [3, 4]
        assert q.get_batch(10) == []
        assert q.delivered == 5

    def test_get_batch_zero_or_negative(self, env):
        q = MessageQueue(env, "q")
        q.publish("x")
        assert q.get_batch(0) == []
        assert q.get_batch(-1) == []
        assert len(q) == 1

    def test_get_then_get_batch_preserves_fifo(self, env):
        q = MessageQueue(env, "q")
        for i in range(4):
            q.publish(i)

        def sub():
            first = yield q
            return [first] + q.get_batch(10)

        assert run_sync(env, sub()) == [0, 1, 2, 3]

    def test_peek_head_is_nondestructive(self, env):
        q = MessageQueue(env, "q")
        assert q.peek_head() is None
        q.publish("a")
        q.publish("b")
        assert q.peek_head() == "a"
        assert q.peek_head() == "a"
        assert len(q) == 2


class TestQueueGroup:
    def test_route_to_node_queue(self, env):
        group = QueueGroup(env, "region")
        qa = group.add_node("nodeA")
        group.add_node("nodeB")
        assert group.route("nodeA") is qa

    def test_duplicate_node_rejected(self, env):
        group = QueueGroup(env, "region")
        group.add_node("n")
        with pytest.raises(ValueError):
            group.add_node("n")

    def test_unknown_node_rejected(self, env):
        group = QueueGroup(env, "region")
        with pytest.raises(KeyError):
            group.route("ghost")

    def test_close_all(self, env):
        group = QueueGroup(env, "region")
        group.add_node("a")
        group.add_node("b")
        group.close_all()
        assert all(q.closed for q in group.queues())

    def test_total_backlog(self, env):
        group = QueueGroup(env, "region")
        group.add_node("a")
        group.add_node("b")
        group.route("a").publish(1)
        for q in group.queues():
            q.publish(2)
        assert group.total_backlog() == 3

    def test_len(self, env):
        group = QueueGroup(env, "region")
        group.add_node("a")
        assert len(group) == 1
