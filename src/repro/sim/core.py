"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES in the style of SimPy:

* :class:`Environment` owns the simulation clock and the pending-event heap.
* :class:`Event` is a one-shot future; processes wait on events by yielding
  them.
* :class:`Process` wraps a generator.  The generator yields an
  :class:`Event` — the process resumes when that event fires and receives
  the event's value (or has the event's exception thrown into it) — or a
  bare non-negative ``float``, which is a *sleep* (the process resumes that
  many simulated seconds later) — ``(t,)``, a one-tuple of a ``float``
  instant, sleeps until ``t`` — or a ``Resource``, ``MessageQueue`` or
  ``Barrier``, which is a *park* (the process resumes holding a slot, with
  a message, or with a generation).  Sleeps and parks are resumed straight
  from the heap, with no event object in between.  A process is itself an
  event that succeeds with the generator's return value, so processes can
  wait on each other.

Determinism: ties in the event heap are broken by a monotonically increasing
sequence number, so two runs with the same seed replay identically.  This is
what makes the benchmark figures reproducible run-to-run.

The hot path is allocation-lean (see ``docs/kernel.md``): heap entries are
plain ``(time, key, fn, arg)`` tuples — no shadow Event objects for late
callbacks or interrupt delivery — and an entry due at the current instant
skips the heap for a FIFO lane beside it.  Callback lists are allocated
lazily on the first ``add_callback``, and an interrupted process detaches
from the event it was waiting on by *marking* (an O(1) identity check on
resume) instead of a linear ``callbacks.remove``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Process",
    "Environment",
    "run_sync",
    "cancel_wait",
]

# A process body is a generator that yields Events, bare delays (floats:
# sleeps), one-tuples of a float instant (sleeps until it) or the owners
# of a park (Resource, MessageQueue, Barrier: the classes live in modules
# that import this one) and returns a value.
ProcessGenerator = Generator[Any, Any, Any]

_PENDING = object()

#: Sentinel stored in ``Event.callbacks`` once the event has been
#: processed.  Distinct from ``None``, which means "no callbacks added
#: yet" (the list is allocated lazily on the first ``add_callback``).
_PROCESSED = object()

#: Heap keys are the schedule sequence number; interrupt-carrier entries
#: subtract this bias so every same-time interrupt sorts before every
#: same-time ordinary event (the old explicit priority -1 lane) while
#: interrupts keep FIFO order among themselves.  Sequence numbers stay
#: far below the bias for any feasible run length.
_INTERRUPT_BIAS = 1 << 62

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the interrupter.
    Failure injection in the reproduction (client-node crashes, §III.G of
    the paper) is built on this.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot future tied to an :class:`Environment`.

    An event is *triggered* once, either with :meth:`succeed` (carrying a
    value) or :meth:`fail` (carrying an exception).  Callbacks registered
    before triggering run when the environment processes the event;
    callbacks registered after triggering are scheduled immediately.

    ``callbacks`` is ``None`` until the first callback is added, a bare
    callable while exactly one callback is registered (the overwhelmingly
    common case — one process waiting on one event — pays no list
    allocation), a list once a second callback joins, and the
    module-level ``_PROCESSED`` sentinel once the event has fired and its
    callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_scheduled", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (or begun running)."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        # Triggering schedules, so _scheduled is the triggered test.
        if self._scheduled:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._scheduled:
            raise SimulationError(f"event {self!r} already triggered")
        self._exc = exc
        self._value = None
        self.env._schedule(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = fn
        elif callbacks is _PROCESSED:
            # Already processed: run at the current time, next cycle.
            self.env._schedule_callback(fn, self)
        elif type(callbacks) is list:
            callbacks.append(fn)
        else:
            self.callbacks = [callbacks, fn]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.env.now:.6g}>"


def _bad_delay(delay: Any) -> ValueError:
    """What a negative or NaN delay raises (callers test ``not delay >= 0``,
    the one comparison that is False for both)."""
    return ValueError(f"delay must be a number >= 0, got {delay!r}")


class _Outcome:
    """The two fields ``Process._resume`` reads off the event that woke it.

    Lets the bootstrap, an interrupt and the wake-up of a park that
    delivers something (a message, a barrier generation, ``QueueClosed``)
    enter the one resume body without allocating a real :class:`Event`.
    """

    __slots__ = ("_exc", "_value")

    def __init__(self, value: Any = None,
                 exc: Optional[BaseException] = None):
        self._value = value
        self._exc = exc


#: What every process "waits on" until its bootstrap heap entry runs:
#: the first resume sends ``None`` into the fresh generator.
_BOOT = _Outcome()


class Process(Event):
    """A running generator; also an event that fires on completion."""

    __slots__ = ("_generator", "_waiting_on", "_parked_on", "_detached",
                 "_resume_cb", "label")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 label: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__};"
                " did you forget to call the process function?")
        super().__init__(env)
        self.label = label
        self._generator = generator
        #: The event (or an outcome, or a sleep/grant token) whose firing
        #: resumes the generator next — or, while queued in a park, its
        #: own ``(process, requested_at)`` waiter entry, which nothing
        #: fires: ``_hand_over`` swaps a wake-up in.  ``None`` while
        #: running or once finished.
        self._waiting_on: Any = _BOOT
        #: The owner of the latest park; read only while ``_waiting_on``
        #: is a park's, and cleared by the cancel that gives a handed-over
        #: slot or message back (so it does so once).
        self._parked_on: Any = None
        #: Event we were detached from by an interrupt whose (stale)
        #: callback is still registered — removal-marking instead of a
        #: linear ``callbacks.remove`` (see ``_deliver_interrupt``).
        self._detached: Optional[Event] = None
        #: The one bound-method object registered as a callback for every
        #: wait (avoids a bound-method allocation per resume).
        self._resume_cb = self._resume
        # Bootstrap: resume the generator at the current time, straight
        # from the same-instant lane — no shadow bootstrap Event.
        env._seq = seq = env._seq + 1
        env._lane.append((env.now, seq, self._resume_cb, _BOOT))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def waiting_on(self) -> Optional[Union[Event, _Parked]]:
        """What this process is currently blocked on: the event, a
        handle built on demand for a park (``yield resource``), or
        ``None`` — also while it sleeps on a bare delay.

        Fault injection pairs this with :func:`cancel_wait`: before
        interrupting a process, cancel the wait so the resource, queue or
        barrier it waits in reclaims the registration instead of leaking
        a waiter slot.
        """
        waiting = self._waiting_on
        if waiting is None or isinstance(waiting, Event):
            return waiting
        if (waiting is _BOOT or (waiting.__class__ is int and waiting > 0)
                or self._parked_on is None):
            return None  # not started, asleep, or the hand-over given back
        # Parked: on a grant token (negative), an outcome or a waiter entry.
        return _Parked(self._parked_on, self, waiting)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return  # interrupting a finished process is a no-op
        self.env._schedule_interrupt(self, Interrupt(cause))

    # -- internal ------------------------------------------------------
    def _resume(self, trigger: Any) -> None:
        """Callback: what this process was waiting on has happened.

        The only place the generator is advanced.  ``trigger`` is the
        event that fired, an :class:`_Outcome` standing in for one (the
        bootstrap, an interrupt, a get's or an arrival's wake-up), or the
        integer token of a sleep's (either spelling) or a grant's wake-up
        entry.
        """
        if trigger is not self._waiting_on:
            # Stale wakeup from an event we detached from or a sleep or
            # park we were interrupted out of (interrupt won), a bootstrap
            # the interrupt beat, or the process already finished.  Consume
            # the marker so a future wait on the same event registers a
            # fresh callback.
            if trigger is self._detached:
                self._detached = None
            return
        if trigger.__class__ is int:
            exc = value = None  # a sleep or a grant delivers nothing
        else:
            exc = trigger._exc
            value = trigger._value
        env = self.env
        self._waiting_on = None
        env._active_process = self
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            env._active_process = None
            self._value = stop.value
            env._schedule(self)
            return
        except BaseException as err:
            env._active_process = None
            self._exc = err
            self._value = None
            env._schedule(self)
            raise
        env._active_process = None
        cls = target.__class__
        if cls is float:
            # A sleep: the wake-up re-enters this method straight from
            # the heap (the lane, for ``yield 0.0``).  Its sequence
            # number doubles as the wait's identity (unique, and the
            # entry carries the very object stored here), so the
            # staleness test above covers it.
            if target >= 0:
                env._seq = seq = env._seq + 1
                if target:
                    _heappush(env._heap,
                              (env.now + target, seq, self._resume_cb, seq))
                else:
                    env._lane.append((env.now, seq, self._resume_cb, seq))
                self._waiting_on = seq
                return
            # Negative or NaN: raise at the offending yield, delivered
            # the way an interrupt is.
            self._waiting_on = carrier = _Outcome(exc=_bad_delay(target))
            self._resume(carrier)
            return
        if cls is tuple:
            # A sleep until an absolute instant, ``yield (t,)``: the
            # wake-up is keyed by ``t`` itself (``now + (t - now)`` can
            # miss it by an ulp) and is a sleep's in every other way.
            when = target[0] if len(target) == 1 else None
            now = env.now
            if when.__class__ is float and when >= now:
                env._seq = seq = env._seq + 1
                if when > now:
                    _heappush(env._heap, (when, seq, self._resume_cb, seq))
                else:
                    env._lane.append((now, seq, self._resume_cb, seq))
                self._waiting_on = seq
                return
            self._waiting_on = carrier = _Outcome(exc=ValueError(
                f"a sleep until an instant needs (t,) with t a float"
                f" >= now ({now!r}), got {target!r}"))
            self._resume(carrier)
            return
        park = getattr(cls, "_park", None)
        if park is None and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.label or self._generator!r} yielded"
                f" {target!r}; processes must yield Event instances, a"
                " float delay, a (float instant,) or a Resource,"
                " MessageQueue or Barrier (use 'yield from' for"
                " sub-generators)")
        if target.env is not env:
            raise SimulationError(
                f"yielded {target!r} belongs to another Environment")
        if park is not None:
            # A park: the owner pushes the wake-up or queues the process;
            # either way it returns the wait's identity (a grant token, an
            # outcome, or the waiter entry a hand-over swaps one in for).
            self._parked_on = target
            self._waiting_on = park(target, self)
            return
        self._waiting_on = target
        if target is self._detached:
            # Re-waiting on the event we were detached from: its stale
            # callback is still registered — reuse it instead of adding a
            # duplicate (which could double-resume).
            self._detached = None
            return
        callbacks = target.callbacks
        if callbacks is None:
            target.callbacks = self._resume_cb
        elif callbacks is _PROCESSED:
            env._schedule_callback(self._resume_cb, target)
        elif type(callbacks) is list:
            callbacks.append(self._resume_cb)
        else:
            target.callbacks = [callbacks, self._resume_cb]

    def _deliver_interrupt(self, interrupt: Interrupt) -> None:
        if self.triggered:
            return
        waiting = self._waiting_on
        if waiting is _BOOT:
            # Interrupted before the bootstrap ran (the generator never
            # started): a throw would surface at the generator's first
            # line, outside any try block.  Cancel the process instead —
            # it completes with the interrupt as its outcome, and the
            # bootstrap entry still on the heap becomes a stale wakeup.
            self._generator.close()
            self._waiting_on = None
            self._exc = interrupt
            self._value = None
            self.env._schedule(self)
            return
        if isinstance(waiting, Event):
            # Detach from the event we were waiting on; it may still fire
            # later but must no longer resume us with its value.  Mark
            # instead of the old linear ``callbacks.remove`` — `_resume`
            # drops the stale wakeup via an O(1) identity check.  One
            # marker slot suffices for the common case; a second detach
            # while the first marker is live falls back to removal.
            # A park's token or outcome takes neither: it never recurs,
            # so the wake-up still on the heap is stale by the same
            # identity check.  Nor does a waiter entry: a hand-over that
            # finds the process no longer waiting on it pushes a wake-up
            # nobody claims (the slot leaks unless cancelled first).
            if self._detached is None:
                self._detached = waiting
            elif waiting.callbacks is self._resume_cb:
                waiting.callbacks = None
            elif type(waiting.callbacks) is list:
                waiting.callbacks.remove(self._resume_cb)
        self._waiting_on = carrier = _Outcome(exc=interrupt)
        self._resume(carrier)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.label or self._generator!r} {state}>"


class _Parked:
    """One park of one process, as :attr:`Process.waiting_on` reports it.

    Built on demand — the park itself allocates nothing — and good for
    one thing, :func:`cancel_wait`: it describes the park as it stood
    when ``waiting_on`` was read (``mark`` is the waiter entry while
    queued, the grant token or value outcome once it was handed over).
    """

    __slots__ = ("owner", "process", "mark")

    def __init__(self, owner: Any, process: Process, mark: Any):
        self.owner = owner
        self.process = process
        self.mark = mark

    def _on_cancel(self) -> bool:
        return self.owner._cancel_park(self.process, self.mark)


def _hand_over(entry: Any, wake: Any = None) -> Any:
    """End the park ``entry`` = ``(process, requested_at)`` now: push and
    return its wake-up — ``wake``, an outcome carrying what it delivers,
    or for a grant the negated sequence number.  It becomes what the
    process waits on only if that is still ``entry``; one interrupted away
    without :func:`cancel_wait` drops it as stale."""
    process = entry[0]
    env = process.env
    env._seq = seq = env._seq + 1
    if wake is None:
        wake = -seq
    env._lane.append((env.now, seq, process._resume_cb, wake))
    if process._waiting_on is entry:
        process._waiting_on = wake
    return wake


def _withdraw(waiters: Any, entry: Any) -> bool:
    """Remove the park ``entry`` from ``waiters`` by identity (a stale
    entry and a re-park at the same instant are equal tuples)."""
    for i, queued in enumerate(waiters):
        if queued is entry:
            del waiters[i]
            return True
    return False


def cancel_wait(wait: Optional[Union[Event, _Parked]]) -> bool:
    """Undo the side effects of the wait ``Process.waiting_on`` reported.

    Only a park holds anything: the owner's ``_cancel_park`` withdraws a
    queued entry or gives back what was handed over but not consumed,
    True if it reclaimed something (at most once).  Anything else cancels
    to False.  Interrupt the process *after* cancelling: that makes a
    wake-up still on the heap stale.
    """
    return wait.__class__ is _Parked and wait._on_cancel()


class _Stop:
    """What ``run(until=<time>)`` ends on: the ``arg`` of an event-like
    heap entry keyed ``inf``, after every entry due at that instant
    (pushed while it waits included).  Not an :class:`Event`; it takes
    no ``_seq`` and is not counted."""

    __slots__ = ("callbacks",)


class Environment:
    """The simulation clock, event heap, and process factory."""

    def __init__(self):
        self.now = 0.0
        #: Heap of ``(time, key, fn, arg)``.  ``key`` is the schedule
        #: sequence number (biased negative for interrupt carriers) and
        #: is unique, so ``fn``/``arg`` are never compared.  ``fn`` is
        #: None for ordinary events (``arg`` is the Event to process);
        #: otherwise the entry is a bare deferred call ``fn(arg)`` —
        #: sleep and park wake-ups, late callbacks, interrupt delivery,
        #: process bootstrap — with no shadow Event allocated.
        self._heap: list = []
        #: FIFO of the ordinary-key entries pushed due at ``now`` (event
        #: triggers, late callbacks, bootstraps, grants and hand-overs,
        #: ``yield 0.0``).  Each takes a fresh sequence number at ``now``,
        #: so the lane is sorted by key and empty whenever the clock
        #: advances: merging its head with the heap's gives the heap's
        #: own order (docs/kernel.md, "Heap discipline").
        self._lane: deque = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._event_count = 0

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float) -> float:
        """``yield env.timeout(d)`` is ``yield d``: a sleep, validated here.

        Kept only because ``benchmarks/perf`` spells its sleeps this way;
        the float it returns takes the heap key and the event count of a
        bare delay.
        """
        if not delay >= 0:
            raise _bad_delay(delay)
        return float(delay)

    def process(self, generator: ProcessGenerator, label: str = "") -> Process:
        return Process(self, generator, label=label)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds with the list of ``events``' values once
        all have fired, or fails with the first one that fails.

        Kept because ``benchmarks/perf`` joins its rank processes with it
        (as ``DFSClient._stripe_io`` joins its chunk RPCs).  One counting
        callback is shared by every child; the join costs the one heap
        entry its own trigger pushes.
        """
        join = Event(self)
        children = list(events)
        remaining = len(children)
        if not remaining:
            return join.succeed([])

        def on_child(child: Event) -> None:
            nonlocal remaining
            if join._scheduled:
                return
            if child._exc is not None:
                join.fail(child._exc)
                return
            remaining -= 1
            if not remaining:
                join.succeed([c._value for c in children])

        for child in children:
            child.add_callback(on_child)
        return join

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total events processed so far (kernel throughput metric)."""
        return self._event_count

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._seq = seq = self._seq + 1
        self._lane.append((self.now, seq, None, event))

    def _schedule_callback(self, fn: Callable[[Event], None],
                           event: Event) -> None:
        """Run ``fn(event)`` for an already-processed event, ASAP."""
        self._seq = seq = self._seq + 1
        self._lane.append((self.now, seq, fn, event))

    def _schedule_interrupt(self, process: Process,
                            interrupt: Interrupt) -> None:
        # Biased key: interrupts beat same-time ordinary events so that a
        # killed node stops before processing messages stamped at the
        # same instant.
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now, seq - _INTERRUPT_BIAS,
                               process._deliver_interrupt, interrupt))

    # -- main loop -------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (or deferred kernel call): the
        smaller ``(time, key)`` of the heap's head and the lane's."""
        heap, lane = self._heap, self._lane
        if lane and not (heap and heap[0] < lane[0]):
            t, _key, fn, arg = lane.popleft()
        elif heap:
            t, _key, fn, arg = _heappop(heap)
        else:
            raise SimulationError("step() on empty event heap")
        if t < self.now:  # pragma: no cover - kernel invariant
            raise SimulationError("time went backwards")
        self.now = t
        self._event_count += 1
        if fn is not None:
            fn(arg)
            return
        callbacks = arg.callbacks
        arg.callbacks = _PROCESSED
        if callbacks is not None:
            if type(callbacks) is list:
                for cb in callbacks:
                    cb(arg)
            else:
                callbacks(arg)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to heap exhaustion), a time (run
        every entry due at or before it, then set the clock to it), or an
        :class:`Event` (run until it has been processed — all of its
        callbacks included — and return its value).

        One loop serves all three: it ends on the heap and the lane
        running dry or on processing ``target``, one identity test on
        event entries only.  Each pass takes the smaller ``(time, key)``
        of the two heads.
        A time bound becomes a :class:`_Stop` entry keyed after every
        entry due at that instant, so no per-event bound test exists.
        The ``step`` body is inlined: one Python call per event is the
        largest fixed cost in the kernel.  The event count is kept
        locally and flushed in ``finally``, so ``processed_events`` stays
        right when an exception leaves mid-run; a stop entry still on
        the heap then is taken off it.
        """
        heap = self._heap
        lane = self._lane
        processed = _PROCESSED
        stop = target = None
        if isinstance(until, Event):
            target = until
            if target.callbacks is processed:
                return target.value
        elif until is not None:
            deadline = float(until)
            if not deadline >= self.now:
                raise ValueError(f"run(until={until!r}) needs a time >= now"
                                 f" ({self.now})")
            target = _Stop()
            target.callbacks = None
            stop = (deadline, float("inf"), None, target)
            _heappush(heap, stop)
        pop = _heappop
        popleft = lane.popleft
        count = 0
        try:
            while True:
                if lane:
                    if heap and heap[0] < lane[0]:
                        t, _key, fn, arg = pop(heap)
                    else:
                        t, _key, fn, arg = popleft()
                elif heap:
                    t, _key, fn, arg = pop(heap)
                elif target is not None:
                    raise SimulationError(
                        "simulation ran out of events before the awaited"
                        f" event triggered: {target!r} — deadlock?")
                else:
                    break
                self.now = t
                count += 1
                if fn is not None:
                    fn(arg)
                    continue
                callbacks = arg.callbacks
                arg.callbacks = processed
                if callbacks is not None:
                    if type(callbacks) is list:
                        for cb in callbacks:
                            cb(arg)
                    else:
                        callbacks(arg)
                if arg is target:
                    break
        except BaseException:
            if stop is not None:
                heap.remove(stop)
                heapq.heapify(heap)
            raise
        finally:
            self._event_count += count
        if stop is not None:
            self._event_count -= 1  # the stop entry is not an event
        elif target is not None:
            return target.value
        return None

    def peek(self) -> float:
        """Time of the next event, or +inf when none is pending."""
        if self._lane:
            return self.now  # a lane entry is due now; no heap entry sooner
        return self._heap[0][0] if self._heap else float("inf")


def run_sync(env: Environment, generator: ProcessGenerator,
             label: str = "run_sync") -> Any:
    """Spawn ``generator`` as a process and drive the env until it finishes.

    This is the bridge between the synchronous public API and the DES: e.g.
    ``PaconFS.mkdir`` wraps the protocol generator with ``run_sync`` so
    library users never see the event loop.
    """
    proc = env.process(generator, label=label)
    return env.run(until=proc)
