"""Unit tests for the pub/sub message queue substrate."""

import pytest

from repro.mq import MessageQueue, QueueClosed, QueueGroup
from repro.sim.core import Environment, run_sync


@pytest.fixture
def env():
    return Environment()


class TestMessageQueue:
    def test_publish_then_get(self, env):
        q = MessageQueue(env, "q")
        q.publish({"op": "create"})

        def sub():
            msg = yield q.get()
            return msg

        assert run_sync(env, sub()) == {"op": "create"}

    def test_fifo_order(self, env):
        q = MessageQueue(env, "q")
        for i in range(5):
            q.publish(i)
        out = []

        def sub():
            for _ in range(5):
                out.append((yield q.get()))

        env.process(sub())
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_get_blocks_until_publish(self, env):
        q = MessageQueue(env, "q")
        got = []

        def sub():
            msg = yield q.get()
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
            msg = yield q.get()
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
                yield q.get()
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
            first = yield q.get()
            try:
                yield q.get()
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
            yield q.get()

        run_sync(env, sub())
        assert q.delivered == 1
        assert len(q) == 1


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
            first = yield q.get()
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
