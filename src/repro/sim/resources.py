"""Synchronization and contention primitives for the DES kernel.

* :class:`Resource` — capacity-limited server (models MDS worker pools,
  cache-node CPUs, NIC serialization).  FIFO grant order keeps runs
  deterministic, and a queued waiter's wait is accounted at the instant
  the slot is handed over.  A process takes a slot with ``yield resource``
  (a *park*: no event object, ``docs/kernel.md`` §Parking) and gives it
  back with ``resource.release()``.
* :class:`Barrier` — classic N-party rendezvous (used by the mdtest
  workload to reproduce MPI phase barriers); ``yield barrier`` parks too.

The message channel of the commit pipeline is
:class:`repro.mq.MessageQueue`, which parks a get the same way.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Generator, Iterable, List,
                    Optional, Tuple)

from repro.sim.core import Environment, Event, Process, SimulationError, \
    _hand_over, _Outcome, _withdraw

__all__ = ["Resource", "Barrier", "window_utilizations"]


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
        return window_utilizations(((self, mark),))[0]

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
        env = self.env
        now = env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        self.total_acquires += 1
        if self._in_use < self.capacity and not self._waiters:
            # Inline, not ``_hand_over``: a call here costs one per grant
            # on 36-40 % of all kernel entries (docs/kernel.md, "Parking").
            # Due now, so the wake-up takes the same-instant lane.
            self._in_use += 1
            env._seq = seq = env._seq + 1
            token = -seq
            env._lane.append((now, seq, process._resume_cb, token))
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
            return _withdraw(self._waiters, mark)
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
        now = self.env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            # Its wait ends at this instant, so account it here.
            entry = self._waiters.popleft()
            waited = now - entry[1]
            self.total_wait_time += waited
            if self._wait_observe is not None:
                self._wait_observe(waited)
            _hand_over(entry)
        else:
            self._in_use -= 1

    def use(self, service_time: float) -> Generator[Event, Any, None]:
        """Convenience generator: park, hold for ``service_time``, release."""
        yield self
        try:
            yield service_time
        finally:
            self.release()


def window_utilizations(windows: Iterable[Tuple[Resource, List[float]]],
                        ) -> List[float]:
    """:meth:`Resource.window_utilization` of each ``(resource, mark)``,
    in one call: a sampler reads every tracked resource each tick.

    The accounting of :meth:`Resource.busy_time` is inlined (the same
    operations on the same floats), so the busy totals, the marks and
    the results are bit-identical to calling the methods one by one.
    """
    out = []
    for res, mark in windows:
        now, capacity = res.env.now, res.capacity
        res._busy_time = busy = (res._busy_time
                                 + res._in_use * (now - res._last_change))
        res._last_change = now
        window = now - mark[1]
        out.append((busy - mark[0]) / (window * capacity)
                   if window > 0 else 0.0)
        mark[0], mark[1] = busy, now
    return out


class Barrier:
    """N-party reusable barrier.

    The first ``parties - 1`` arrivals (``yield barrier``) block; the last
    releases everyone and resets the barrier for the next generation.
    Every party resumes with the generation number that completed.
    """

    def __init__(self, env: Environment, parties: int, name: str = ""):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.name = name
        self.parties = parties
        self.generation = 0
        #: ``(process, arrival time)``, one per blocked arrival.
        self._waiters: List[Tuple[Process, float]] = []

    def arrive(self) -> "Barrier":
        """``yield barrier``'s old spelling, kept only because
        ``benchmarks/perf`` arrives this way (like ``env.timeout``)."""
        return self

    def _park(self, process: Process) -> Any:
        """``yield barrier``: queue the arrival, or end the generation —
        handed to every party in arrival order — and return this, the
        last arrival's, own wake-up."""
        entry = (process, self.env.now)
        self._waiters.append(entry)
        if len(self._waiters) != self.parties:
            return entry
        gen = self.generation
        self.generation += 1
        waiting, self._waiters = self._waiters, []
        for entry in waiting:
            wake = _hand_over(entry, _Outcome(gen))
        return wake

    def _cancel_park(self, process: Process, mark: Any) -> bool:
        """Cancel hook: withdraw an arrival that has not completed yet.

        A crashed party must not hold the barrier hostage; removing its
        arrival lets the remaining parties complete the generation.  An
        arrival of an already-released generation needs no cleanup.
        """
        return mark.__class__ is tuple and _withdraw(self._waiters, mark)

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)
