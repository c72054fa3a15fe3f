"""Model-based property test: MessageQueue against a plain-deque oracle.

The commit queue's waiter, hand-over and cancel semantics are stated once
(``repro.mq.queue``); this machine states them a second time in the
simplest form that could be right — a deque of ``(message, stamp)`` pairs,
a deque of blocked consumer ids and a handful of counters — and checks
the two agree after every step.

Consumers are real DES processes parked in ``yield queue``, so the
machine also sees what a commit loop sees: which consumer receives which
message, ``QueueClosed`` on close, that a blocked consumer waits on a park
of this queue and that no queue operation builds an ``Event`` (the only
events constructed are the consumer processes themselves).  Every rule
settles the environment at the current instant before returning, so a
"granted but not yet consumed" get exists only inside the two rules that
cancel one.
"""

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, \
    precondition, rule

from repro.mq import MessageQueue, QueueClosed
from repro.sim.core import Environment, Event, Interrupt, _Parked, \
    cancel_wait


class MessageQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.q = MessageQueue(self.env, "q")
        # -- the oracle ---------------------------------------------------
        self.buffer = deque()        # (message, publish stamp)
        self.blocked = deque()       # consumer ids, oldest first
        self.closed = False
        self.published = 0
        self.delivered = 0
        self.drained = 0
        self.peak = 0
        self.wait_total = 0.0
        self.expect_got = []         # (consumer id, message), in order
        self.expect_closed = set()   # consumers that must see QueueClosed
        self.expect_taken = []       # messages that left for good, in order
        # -- what actually happened ---------------------------------------
        self.got = []
        self.saw_closed = set()
        self.taken = []
        self.procs = {}
        self.handles = {}            # consumer id -> handle read at its park
        self.consumed = []           # consumer ids that took a message
        # Count every Event built from here on; each consumer process is
        # one, and nothing else may be.
        self.events_built = 0
        self._event_init = Event.__init__

        def counting_init(event, *args, **kwargs):
            self.events_built += 1
            self._event_init(event, *args, **kwargs)

        Event.__init__ = counting_init

    def teardown(self):
        Event.__init__ = self._event_init

    # -- helpers ----------------------------------------------------------
    def _consumer(self, cid):
        try:
            message = yield self.q
        except QueueClosed:
            self.saw_closed.add(cid)
        except Interrupt:
            return
        else:
            self.got.append((cid, message))
            self.taken.append(message)
            self.consumed.append(cid)

    def _park_consumer(self):
        """Spawn a consumer and run only its bootstrap (the rules leave
        nothing else on the heap), so it has parked on the queue but — if
        the park handed it a message — not yet resumed."""
        cid = len(self.procs)
        self.procs[cid] = proc = self.env.process(self._consumer(cid),
                                                  label=f"consumer{cid}")
        self.env.step()
        self.handles[cid] = handle = proc.waiting_on
        assert isinstance(handle, _Parked) and handle.owner is self.q
        return cid

    def _settle(self):
        """Run everything scheduled for the current instant."""
        self.env.run(until=self.env.now)

    def _deliver(self, cid, message):
        self.expect_got.append((cid, message))
        self.expect_taken.append(message)

    def _pop_buffered(self):
        message, stamp = self.buffer.popleft()
        self.wait_total += self.env.now - stamp
        return message

    # -- rules ------------------------------------------------------------
    @rule()
    def publish(self):
        message = self.published
        if self.closed:
            with pytest.raises(QueueClosed):
                self.q.publish(message)
            return
        self.q.publish(message)
        self.published += 1
        if self.blocked:
            self.delivered += 1
            self._deliver(self.blocked.popleft(), message)
        else:
            self.buffer.append((message, self.env.now))
            self.peak = max(self.peak, len(self.buffer))
        self._settle()

    @rule()
    def blocking_get(self):
        cid = self._park_consumer()
        self._settle()
        if self.buffer:
            self.delivered += 1
            self._deliver(cid, self._pop_buffered())
        elif self.closed:
            self.expect_closed.add(cid)
        else:
            self.blocked.append(cid)

    @rule(n=st.integers(min_value=-1, max_value=4))
    def get_batch(self, n):
        out = self.q.get_batch(n)
        expected = []
        while self.buffer and len(expected) < n:
            expected.append(self._pop_buffered())
        self.delivered += len(expected)
        assert out == expected
        self.taken.extend(out)
        self.expect_taken.extend(expected)

    @precondition(lambda self: self.blocked)
    @rule(pick=st.integers(min_value=0, max_value=7))
    def cancel_blocked_getter(self, pick):
        cid = self.blocked[pick % len(self.blocked)]
        proc = self.procs[cid]
        handle = proc.waiting_on
        assert handle.mark is self.handles[cid].mark
        assert cancel_wait(handle) is True
        assert cancel_wait(handle) is False
        proc.interrupt("cancelled")
        self.blocked.remove(cid)
        self._settle()
        assert not proc.is_alive

    @precondition(lambda self: self.blocked and not self.closed)
    @rule()
    def cancel_getter_granted_by_publish(self):
        """A publish hands its message to the oldest blocked consumer,
        which is killed before it resumes: the message must not be lost
        and the delivery must not stay counted."""
        message = self.published
        self.q.publish(message)
        self.published += 1
        cid = self.blocked.popleft()
        proc = self.procs[cid]
        handle = proc.waiting_on    # the hand-over swapped the wake-up in
        assert handle.mark is not self.handles[cid].mark
        assert cancel_wait(handle) is True
        assert cancel_wait(handle) is False
        proc.interrupt("cancelled")
        if self.blocked:
            # Redelivered to the next blocked consumer, still one delivery.
            self.delivered += 1
            self._deliver(self.blocked.popleft(), message)
        else:
            self.buffer.appendleft((message, self.env.now))
        self._settle()

    @precondition(lambda self: self.buffer)
    @rule()
    def cancel_get_granted_from_buffer(self):
        cid = self._park_consumer()     # served at its yield, not resumed
        handle = self.handles[cid]
        assert cancel_wait(handle) is True
        assert cancel_wait(handle) is False
        self.procs[cid].interrupt("cancelled")
        # Residency so far is accounted at the hand-over; the message
        # goes back to the head with a fresh stamp.
        message = self._pop_buffered()
        self.buffer.appendleft((message, self.env.now))
        self._settle()

    @precondition(lambda self: self.consumed)
    @rule(pick=st.integers(min_value=0, max_value=7))
    def cancel_consumed_get_is_a_noop(self, pick):
        cid = self.consumed[pick % len(self.consumed)]
        assert cancel_wait(self.handles[cid]) is False
        assert cancel_wait(self.procs[cid].waiting_on) is False

    @rule()
    def drain(self):
        out = self.q.drain()
        assert out == [message for message, _stamp in self.buffer]
        self.drained += len(out)
        self.buffer.clear()

    @rule()
    def close(self):
        self.q.close()
        self.closed = True
        self.expect_closed.update(self.blocked)
        self.blocked.clear()
        self._settle()

    @rule(dt=st.sampled_from([0.125, 0.5, 1.0, 3.0]))
    def advance_time(self, dt):
        self.env.run(until=self.env.now + dt)

    # -- invariants ---------------------------------------------------------
    @invariant()
    def counters_match_the_oracle(self):
        q = self.q
        assert q.closed == self.closed
        assert q.published == self.published
        assert q.delivered == self.delivered
        assert q.peak_depth == self.peak
        assert q.total_wait_time == self.wait_total
        assert q.waiting_getters == len(self.blocked)
        assert q.published == q.delivered + len(q) + self.drained

    @invariant()
    def backlog_matches_the_oracle(self):
        expected = [message for message, _stamp in self.buffer]
        assert len(self.q) == len(expected)
        assert self.q.backlog() == expected
        assert self.q.peek_head() == (expected[0] if expected else None)
        # A buffered message never coexists with a blocked consumer.
        assert not (self.buffer and self.blocked)

    @invariant()
    def delivery_is_fifo_and_matches_the_oracle(self):
        assert self.got == self.expect_got
        assert self.saw_closed == self.expect_closed
        assert self.taken == self.expect_taken
        assert self.taken == sorted(set(self.taken))

    @invariant()
    def a_blocked_consumer_is_parked_on_the_queue(self):
        for cid in self.blocked:
            handle = self.procs[cid].waiting_on
            assert isinstance(handle, _Parked) and handle.owner is self.q
            assert handle.mark is self.handles[cid].mark

    @invariant()
    def no_queue_operation_builds_an_event(self):
        assert self.events_built == len(self.procs)


TestMessageQueueModel = MessageQueueMachine.TestCase
TestMessageQueueModel.settings = settings(max_examples=80,
                                          stateful_step_count=40,
                                          deadline=None)
