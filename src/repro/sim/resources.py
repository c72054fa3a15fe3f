"""Synchronization and contention primitives for the DES kernel.

* :class:`Resource` — capacity-limited server (models MDS worker pools,
  cache-node CPUs, NIC serialization).  FIFO grant order keeps runs
  deterministic, and a queued waiter's wait is accounted at the instant
  the slot is handed over.  A process takes a slot with ``yield resource``
  (a *park*: no event object, ``docs/kernel.md`` §Parking) and gives it
  back with ``resource.release()``.
* :class:`Barrier` — classic N-party rendezvous (used by the mdtest
  workload to reproduce MPI phase barriers).

The message channel of the commit pipeline is
:class:`repro.mq.MessageQueue`, which follows the same hand-over rule.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.sim import core as _kernel
from repro.sim.core import Environment, Event, Process, SimulationError

__all__ = ["Resource", "Barrier"]


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.created_at = env.now
        self._in_use = 0
        #: FIFO of ``(process, request time)``, one per queued park.
        self._waiters: Deque[Tuple[Process, float]] = deque()
        # Contention accounting (read by MetricsHub.resource_snapshot).
        self.total_acquires = 0
        self.total_wait_time = 0.0
        self.peak_queue = 0
        self._busy_time = 0.0
        self._last_change = env.now
        # Optional observer called with each queued waiter's wait time;
        # installed by MetricsHub to feed resource.wait[<name>] histograms.
        self._wait_observe: Optional[Callable[[float], None]] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def busy_time(self) -> float:
        """Total slot-seconds of busy time accumulated so far."""
        self._account()
        return self._busy_time

    def window_utilization(self, mark: List[float]) -> float:
        """Busy fraction of capacity since ``mark = [busy_time, time]`` was
        last read (0.0 over an empty window); advances the mark to now.
        The caller seeds the mark, which is what decides whether the first
        window reaches back to ``created_at`` or starts at first sight."""
        busy, now = self.busy_time(), self.env.now
        window = now - mark[1]
        util = ((busy - mark[0]) / (window * self.capacity)
                if window > 0 else 0.0)
        mark[0], mark[1] = busy, now
        return util

    def utilization(self) -> float:
        """Mean fraction of capacity busy over the resource's lifetime.

        Lifetime runs from construction (``created_at``) to now — a
        resource created mid-run is not diluted by sim time that elapsed
        before it existed.
        """
        self._account()
        elapsed = self.env.now - self.created_at
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def _park(self, process: Process) -> Any:
        """``yield resource``: ask for a slot on behalf of ``process``.

        Called by ``Process._resume`` only.  Accounts the request, then
        returns what the process waits on — the token of the wake-up just
        pushed (a slot was free: the negated sequence number, which no
        sleep token equals), or this park's waiter entry, which
        :meth:`release` replaces with such a token at the hand-over.
        """
        env = process.env
        if env is not self.env:
            raise SimulationError(
                f"yielded resource {self.name!r} belongs to another"
                " Environment")
        now = env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        self.total_acquires += 1
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            env._seq = seq = env._seq + 1
            token = -seq
            _heappush(env._heap, (now, seq, process._resume_cb, token))
            return token
        entry = (process, now)
        self._waiters.append(entry)
        if len(self._waiters) > self.peak_queue:
            self.peak_queue = len(self._waiters)
        return entry

    def _cancel_park(self, process: Process, mark: Any) -> bool:
        """Cancel hook of a park: withdraw a queued request, or give back
        a granted slot the process has not resumed with yet (it would
        leak for the resource's lifetime).  A consumed grant is the
        holder's to release: nothing to do."""
        if mark.__class__ is tuple:  # queued when waiting_on was read
            # By identity: a stale entry and a re-park by the same process
            # at the same instant are equal tuples.
            for i, entry in enumerate(self._waiters):
                if entry is mark:
                    del self._waiters[i]
                    return True
            return False
        if process._waiting_on is mark and process._parked_on is self:
            # Granted, wake-up still on the heap.  Clearing ``_parked_on``
            # is what makes a second cancel find nothing to give back.
            process._parked_on = None
            self.release()
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        env = self.env
        now = env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            # Its wait ends at this instant, so account it here.
            nxt, requested_at = entry = self._waiters.popleft()
            waited = now - requested_at
            self.total_wait_time += waited
            if self._wait_observe is not None:
                self._wait_observe(waited)
            # Push the parked process's wake-up.  The token goes in only
            # if the process still waits on this very entry; one
            # interrupted away without ``cancel_wait`` gets a wake-up it
            # drops as stale.
            env._seq = seq = env._seq + 1
            token = -seq
            _heappush(env._heap, (now, seq, nxt._resume_cb, token))
            if nxt._waiting_on is entry:
                nxt._waiting_on = token
        else:
            self._in_use -= 1

    def use(self, service_time: float) -> Generator[Event, Any, None]:
        """Convenience generator: park, hold for ``service_time``, release."""
        yield self
        try:
            yield service_time
        finally:
            self.release()


_kernel._Resource = Resource


class Barrier:
    """N-party reusable barrier.

    The first ``parties - 1`` arrivals block; the last arrival releases
    everyone and resets the barrier for the next generation.  ``arrive``
    returns an event whose value is the generation number that completed.
    """

    def __init__(self, env: Environment, parties: int, name: str = ""):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.name = name
        self.parties = parties
        self.generation = 0
        self._waiting: list[Event] = []
        self._event_name = f"barrier:{name}"

    def arrive(self) -> Event:
        ev = Event(self.env, self._event_name)
        ev._on_cancel = self._cancel_arrival
        self._waiting.append(ev)
        if len(self._waiting) == self.parties:
            gen = self.generation
            self.generation += 1
            waiting, self._waiting = self._waiting, []
            for w in waiting:
                w.succeed(gen)
        return ev

    def _cancel_arrival(self, ev: Event) -> bool:
        """Cancel hook: withdraw an arrival that has not completed yet.

        A crashed party must not hold the barrier hostage; removing its
        arrival lets the remaining parties complete the generation.  An
        arrival of an already-released generation needs no cleanup.
        """
        try:
            self._waiting.remove(ev)
            return True
        except ValueError:
            return False

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)
