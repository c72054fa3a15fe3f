"""FIFO pub/sub queues with close semantics and a per-node group.

Semantics mirrored from ZeroMQ push/pull sockets as Pacon uses them:

* publishes never block (unbounded buffering),
* a single subscriber drains in FIFO order,
* closing wakes blocked subscribers with :class:`QueueClosed` so commit
  processes can shut down cleanly at the end of an application run.

A get is ``msg = yield queue``, a park (``docs/kernel.md`` §Parking).
Delivery is accounted at the hand-over of a message to a get, the rule
:class:`~repro.sim.resources.Resource` follows for slot grants:
``delivered`` and ``total_wait_time`` move at the yield (buffered
message), in ``get_batch``, or in ``publish`` (a subscriber was already
blocked), never when the subscriber resumes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Tuple

from repro.sim.core import Environment, Process, _hand_over, _Outcome, \
    _withdraw

__all__ = ["MessageQueue", "QueueGroup", "QueueClosed"]


class QueueClosed(Exception):
    """Raised from a pending or subsequent ``get`` once the queue closes."""


class MessageQueue:
    """A single-subscriber FIFO message channel."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._closed = False
        #: Undelivered ``(message, publish time)`` pairs, oldest first.
        self._buffer: Deque[Tuple[Any, float]] = deque()
        #: ``(process, request time)`` of each blocked get, oldest first.
        #: Non-empty only while the buffer is empty.
        self._getters: Deque[Tuple[Process, float]] = deque()
        self.published = 0
        self.delivered = 0
        #: High-water mark of the backlog; updated on publish so the
        #: observability export can report worst-case queueing without a
        #: sampler catching the exact instant.  A message handed straight
        #: to a blocked subscriber is never part of the backlog.
        self.peak_depth = 0
        #: Aggregate publish→delivery residency (simulated seconds) over
        #: all delivered messages.
        self.total_wait_time = 0.0

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def closed(self) -> bool:
        return self._closed

    def publish(self, message: Any) -> None:
        if self._closed:
            raise QueueClosed(f"publish on closed queue {self.name!r}")
        self.published += 1
        if self._getters:
            # Hand over to the oldest blocked subscriber: zero residency.
            self.delivered += 1
            _hand_over(self._getters.popleft(), _Outcome(message))
            return
        self._buffer.append((message, self.env.now))
        if len(self._buffer) > self.peak_depth:
            self.peak_depth = len(self._buffer)

    def _take(self) -> Any:
        """Remove the oldest buffered message, accounting its delivery."""
        message, published_at = self._buffer.popleft()
        self.delivered += 1
        self.total_wait_time += self.env.now - published_at
        return message

    def get(self) -> "MessageQueue":
        """``yield queue``'s old spelling, kept only because the probes of
        ``benchmarks/perf`` take messages this way (like ``env.timeout``)."""
        return self

    def _park(self, process: Process) -> Any:
        """``yield queue``: hand over the oldest buffered message, fail
        with ``QueueClosed`` on a closed empty queue, or queue the get."""
        entry = (process, self.env.now)
        if self._buffer:
            return _hand_over(entry, _Outcome(self._take()))
        if self._closed:
            return _hand_over(entry, _Outcome(exc=QueueClosed(self.name)))
        self._getters.append(entry)
        return entry

    @property
    def waiting_getters(self) -> int:
        """Number of subscribers currently blocked in a get."""
        return len(self._getters)

    def _cancel_park(self, process: Process, mark: Any) -> bool:
        """Cancel hook (see :func:`repro.sim.core.cancel_wait`).

        Three cases: still blocked (withdraw the entry); handed a message
        the getter will never resume to consume (the message goes back to
        the head of the queue so it is redelivered instead of silently
        lost, and the delivery is un-counted); or already consumed /
        failed (nothing to do).  The pushed-back message gets a fresh
        publish stamp at the cancel instant: its residency up to the
        hand-over is already in ``total_wait_time``, so wait-time
        accounting treats the redelivery as a new publish.  With another
        getter blocked (no queue in ``src/`` has two subscribers) the
        message goes to it instead and stays counted: buffered behind a
        blocked getter it would wait for a publish that may never come.
        """
        if mark.__class__ is tuple:
            return _withdraw(self._getters, mark)
        if (process._waiting_on is not mark or process._parked_on is not self
                or mark._exc is not None):
            return False
        process._parked_on = None
        if self._getters:
            _hand_over(self._getters.popleft(), _Outcome(mark._value))
        else:
            self._buffer.appendleft((mark._value, self.env.now))
            self.delivered -= 1
        return True

    def get_batch(self, max_items: int) -> List[Any]:
        """Take up to ``max_items`` already-buffered messages, non-blocking.

        Complements a get: a batch consumer blocks on ``yield queue`` for
        the first message, then drains the rest of its batch in one step with
        no further event round trips.  Returns an empty list when nothing
        is buffered (including on a closed queue — close keeps buffered
        messages readable, and there is nothing to fail here).
        """
        out: List[Any] = []
        while self._buffer and len(out) < max_items:
            out.append(self._take())
        return out

    def peek_head(self) -> Any:
        """The oldest undelivered message without removing it, or None."""
        return self._buffer[0][0] if self._buffer else None

    def close(self) -> None:
        """Close the queue; buffered messages remain readable."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            _hand_over(self._getters.popleft(),
                       _Outcome(exc=QueueClosed(self.name)))

    def backlog(self) -> List[Any]:
        """Snapshot of undelivered messages (inspection only)."""
        return [message for message, _published_at in self._buffer]

    def drain(self) -> List[Any]:
        """Remove and return all undelivered messages (failure injection)."""
        messages = self.backlog()
        self._buffer.clear()
        return messages


class QueueGroup:
    """One queue per node.

    ``route(node)`` gives the queue a client on ``node`` publishes to (its
    local commit process's queue).  Region-wide control messages — the
    barrier messages of §III.E — are published queue by queue by the
    region, one per client on that queue's node.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._queues: Dict[Any, MessageQueue] = {}

    def add_node(self, node_key: Any) -> MessageQueue:
        if node_key in self._queues:
            raise ValueError(f"queue already exists for {node_key!r}")
        q = MessageQueue(self.env, name=f"{self.name}[{node_key}]")
        self._queues[node_key] = q
        return q

    def remove_node(self, node_key: Any) -> MessageQueue:
        """Detach and return the queue for ``node_key``.

        The queue is removed from the group *before* the caller closes it
        so a region-wide barrier never trips over a closed member.
        """
        try:
            return self._queues.pop(node_key)
        except KeyError:
            raise KeyError(f"no queue for node {node_key!r}") from None

    def route(self, node_key: Any) -> MessageQueue:
        try:
            return self._queues[node_key]
        except KeyError:
            raise KeyError(f"no queue for node {node_key!r}") from None

    def queues(self) -> Iterable[MessageQueue]:
        return self._queues.values()

    def __len__(self) -> int:
        return len(self._queues)

    def close_all(self) -> None:
        for q in self._queues.values():
            q.close()

    def total_backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())
