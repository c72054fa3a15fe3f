"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES in the style of SimPy:

* :class:`Environment` owns the simulation clock and the pending-event heap.
* :class:`Event` is a one-shot future; processes wait on events by yielding
  them.
* :class:`Process` wraps a generator.  The generator yields an
  :class:`Event` — the process resumes when that event fires and receives
  the event's value (or has the event's exception thrown into it) — or a
  bare non-negative ``float``, which is a *sleep* (the process resumes that
  many simulated seconds later), or a
  :class:`~repro.sim.resources.Resource`, which is a *park* (the process
  resumes holding one of its slots).  Sleeps and parks are resumed straight
  from the heap, with no event object in between.  A process is itself an
  event that succeeds with the generator's return value, so processes can
  wait on each other.

Determinism: ties in the event heap are broken by a monotonically increasing
sequence number, so two runs with the same seed replay identically.  This is
what makes the benchmark figures reproducible run-to-run.

The hot path is allocation-lean (see ``docs/kernel.md``): heap entries are
plain ``(time, key, fn, arg)`` tuples — no shadow Event objects for late
callbacks or interrupt delivery — callback lists are allocated lazily on
the first ``add_callback``, and an interrupted process detaches from the
event it was waiting on by *marking* (an O(1) identity check on resume)
instead of a linear ``callbacks.remove``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Environment",
    "run_sync",
    "cancel_wait",
]

# A process body is a generator that yields Events, bare delays (floats:
# sleeps) or Resources (parks; the class lives in sim/resources.py, which
# imports this module) and returns a value.
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

#: The one class a process may yield to park on: ``sim/resources.py``
#: stores its ``Resource`` here when it is imported (it imports this
#: module, so the kernel cannot import it back).
_Resource: Any = None


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

    __slots__ = ("env", "callbacks", "_value", "_exc", "_scheduled", "name",
                 "_on_cancel")

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
        # _scheduled covers both the triggered states and a pending
        # Timeout (scheduled from birth): manually triggering either is
        # kernel misuse.
        if self._scheduled or self.triggered:
            raise SimulationError(f"event {self!r} already triggered"
                                  " or scheduled")
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._scheduled or self.triggered:
            raise SimulationError(f"event {self!r} already triggered"
                                  " or scheduled")
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


def _fire_timeout(timeout: "Timeout") -> None:
    """Deliver a Timeout: move the pending value in, run callbacks.

    Module-level (not a bound method) so scheduling a Timeout allocates
    nothing beyond its heap tuple.
    """
    timeout._value = timeout._pending_value
    callbacks = timeout.callbacks
    timeout.callbacks = _PROCESSED
    if callbacks is not None:
        if type(callbacks) is list:
            for fn in callbacks:
                fn(timeout)
        else:
            callbacks(timeout)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    The value is held in ``_pending_value`` until the clock reaches the
    fire time, so ``triggered``/``ok``/``value`` answer honestly while
    the timeout is still pending (a fresh ``Timeout(env, 5, value=3)``
    is *not* triggered until t=5).

    This is the composable spelling of a delay — something to hand to
    :class:`AnyOf`/:class:`AllOf`, register a callback on or carry a
    value with.  A process that only wants to sleep yields the bare
    delay instead (see :meth:`Process._resume`): same heap entry, same
    sequence number, no object.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise _bad_delay(delay)
        # Inlined Event.__init__ — timeouts are the single most-allocated
        # object in any run (one per simulated service time), so the
        # super().__init__ call is worth skipping.
        self.env = env
        self.name = ""
        self.callbacks = None
        self._value = _PENDING
        self._exc = None
        self.delay = delay
        self._pending_value = value
        self._scheduled = True
        env._seq = seq = env._seq + 1
        _heappush(env._heap, (env.now + delay, seq, _fire_timeout, self))


class _Outcome:
    """The two fields ``Process._resume`` reads off the event that woke it.

    Lets the bootstrap and an interrupt enter the one resume body without
    allocating a real :class:`Event` for either.
    """

    __slots__ = ("_exc", "_value")

    def __init__(self, exc: Optional[BaseException] = None):
        self._exc = exc
        self._value = None


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
        #: The event (or bootstrap/interrupt outcome, or sleep/grant token)
        #: whose firing resumes the generator next — or, while queued on a
        #: resource, that park's own ``(process, requested_at)`` waiter
        #: entry, which nothing fires: ``Resource.release`` swaps a grant
        #: token in.  ``None`` while running or once finished.
        self._waiting_on: Any = _BOOT
        #: The resource of the latest park; read only while ``_waiting_on``
        #: is a waiter entry or a grant token, and cleared by the cancel
        #: that gives a granted slot back (so it does so once).
        self._parked_on: Any = None
        #: Event we were detached from by an interrupt whose (stale)
        #: callback is still registered — removal-marking instead of a
        #: linear ``callbacks.remove`` (see ``_deliver_interrupt``).
        self._detached: Optional[Event] = None
        #: The one bound-method object registered as a callback for every
        #: wait (avoids a bound-method allocation per resume).
        self._resume_cb = self._resume
        # Bootstrap: resume the generator at the current time, straight
        # from the heap — no shadow bootstrap Event.
        env._seq = seq = env._seq + 1
        _heappush(env._heap, (env.now, seq, self._resume_cb, _BOOT))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def waiting_on(self) -> Optional[Union[Event, _Parked]]:
        """What this process is currently blocked on: the event, a
        handle built on demand for a park (``yield resource``), or
        ``None`` — also while it sleeps on a bare delay.

        Fault injection pairs this with :func:`cancel_wait`: before
        interrupting a process, cancel the wait so the resource/store/
        queue it was parked in reclaims the registration instead of
        leaking a waiter slot.
        """
        waiting = self._waiting_on
        cls = waiting.__class__
        if waiting is _BOOT or (cls is int and waiting > 0):
            return None  # not started, or asleep: nothing to cancel
        if cls is int or cls is tuple:
            # Parked — on a grant token (negative) or a waiter entry —
            # unless a cancel has already given the granted slot back.
            resource = self._parked_on
            return None if resource is None else \
                _Parked(resource, self, waiting)
        return waiting

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
        bootstrap heap entry and ``_deliver_interrupt`` enter here too),
        or the integer token of a sleep's or a grant's wake-up entry.
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
            if not env._catch_process_errors:
                raise
            return
        env._active_process = None
        cls = target.__class__
        if cls is float:
            # A sleep: the wake-up re-enters this method straight from
            # the heap.  Its sequence number doubles as the wait's
            # identity (unique, and the heap entry carries the very
            # object stored here), so the staleness test above covers it.
            # A Timeout built at the yield would have taken the same
            # number and pushed the same key.
            if target >= 0:
                env._seq = seq = env._seq + 1
                _heappush(env._heap,
                          (env.now + target, seq, self._resume_cb, seq))
                self._waiting_on = seq
                return
            # Negative or NaN: raise at the offending yield, delivered
            # the way an interrupt is.
            self._waiting_on = carrier = _Outcome(_bad_delay(target))
            self._resume(carrier)
            return
        if cls is _Resource:
            # A park: the resource takes a slot and pushes the wake-up, or
            # queues the process; either way what it hands back is the
            # wait's identity (a grant token, or the waiter entry that
            # ``release`` will swap one in for).  ``acquire()`` yielded on
            # the spot would have taken the same sequence number.
            self._parked_on = target
            self._waiting_on = target._park(self)
            return
        # Sleeps and parks are gone by here; a bare Event (a queue's or a
        # barrier's hand-out) is the most common event yielded, and the
        # exact-class check skips the generic isinstance walk for it.
        if cls is not Event and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.label or self._generator!r} yielded"
                f" {target!r}; processes must yield Event instances, a"
                " float delay or a Resource (use 'yield from' for"
                " sub-generators)")
        if target.env is not env:
            raise SimulationError("yielded event belongs to another Environment")
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
        cls = waiting.__class__
        if waiting is not None and cls is not int and cls is not tuple:
            # Detach from the event we were waiting on; it may still fire
            # later but must no longer resume us with its value.  Mark
            # instead of the old linear ``callbacks.remove`` — `_resume`
            # drops the stale wakeup via an O(1) identity check.  One
            # marker slot suffices for the common case; a second detach
            # while the first marker is live falls back to removal.
            # A sleep or grant token takes neither: it never recurs, so
            # the wake-up still on the heap is stale by the same identity
            # check.  Nor does a waiter entry: a hand-over that finds the
            # process no longer waiting on it pushes a wake-up nobody
            # claims (the slot leaks unless the caller cancelled first).
            if self._detached is None:
                self._detached = waiting
            else:
                _detach_callback((waiting,), None, self._resume_cb)
        self._waiting_on = carrier = _Outcome(interrupt)
        self._resume(carrier)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.label or self._generator!r} {state}>"


class _Parked:
    """One park of one process, as :attr:`Process.waiting_on` reports it.

    Built on demand — the park itself allocates nothing — and good for
    one thing, :func:`cancel_wait`: it describes the park as it stood
    when ``waiting_on`` was read (``mark`` is the waiter entry while
    queued, the grant token once a slot was handed over).
    """

    __slots__ = ("resource", "process", "mark")

    def __init__(self, resource: Any, process: Process, mark: Any):
        self.resource = resource
        self.process = process
        self.mark = mark

    def _on_cancel(self, _handle: "_Parked") -> bool:
        return self.resource._cancel_park(self.process, self.mark)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "queued" if self.mark.__class__ is tuple else "granted"
        return f"<parked {self.process!r} {state} on {self.resource.name!r}>"


def cancel_wait(event: Optional[Union[Event, _Parked]]) -> bool:
    """Undo the side effects of waiting on ``event``, if it knows how.

    Synchronization primitives that *register* a waiter (resource queues,
    store getters, barrier arrivals, message-queue gets) stash a cancel
    hook on the events they hand out via the ``_on_cancel`` slot.  The
    hook receives the event and must release whatever the registration
    holds — remove the waiter entry, push a granted-but-undelivered slot
    or item back, and so on — returning True if it reclaimed anything.

    Plain events and timeouts have no hook (the slot is never written on
    the hot path) and cancel to a no-op.  A park has no event at all:
    ``Process.waiting_on`` builds a handle with the same hook for it.  A
    hook reclaims at most once.  Callers interrupt the process
    *after* cancelling its wait; the interrupt detaches the process from
    the event, so a later spurious trigger is harmless.
    """
    if event is None:
        return False
    hook = getattr(event, "_on_cancel", None)
    if hook is None:
        return False
    return bool(hook(event))


def _detach_callback(children: Iterable[Event], winner: Optional[Event],
                     callback: Callable) -> None:
    """Drop ``callback`` from every still-pending child except ``winner``.

    Condition events (AnyOf, fail-fast AllOf) decide on their first
    relevant child; without this, a long-lived losing child (e.g. a
    crash-watchdog raced against every op) pins the condition event and
    its whole children list for the rest of the run.
    """
    for child in children:
        if child is winner:
            continue
        callbacks = child.callbacks
        if callbacks is callback:
            child.callbacks = None
        elif type(callbacks) is list:
            try:
                callbacks.remove(callback)
            except ValueError:
                pass


class AllOf(Event):
    """Fires when every child event has fired; value is a list of values.

    Fails fast with the first child failure (and detaches from the
    remaining children so they no longer reference this event).
    """

    __slots__ = ("_children", "_remaining", "_child_cb")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        # One bound method shared by every child registration, so the
        # detach path can drop it by identity.
        self._child_cb = cb = self._on_child
        for ev in self._children:
            ev.add_callback(cb)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            _detach_callback(self._children, ev, self._child_cb)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is (index, value).

    The first child to fire wins; the losers' callbacks are detached so
    long-lived losing events do not pin this event (and its children
    list) for the rest of the run.
    """

    __slots__ = ("_children", "_child_cb")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf needs at least one event")
        self._child_cb = cb = self._on_child
        for ev in self._children:
            ev.add_callback(cb)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
        else:
            self.succeed((self._children.index(ev), ev._value))
        _detach_callback(self._children, ev, self._child_cb)


class Environment:
    """The simulation clock, event heap, and process factory."""

    def __init__(self, initial_time: float = 0.0,
                 catch_process_errors: bool = False):
        self.now = float(initial_time)
        #: Heap of ``(time, key, fn, arg)``.  ``key`` is the schedule
        #: sequence number (biased negative for interrupt carriers) and
        #: is unique, so ``fn``/``arg`` are never compared.  ``fn`` is
        #: None for ordinary events (``arg`` is the Event to process);
        #: otherwise the entry is a bare deferred call ``fn(arg)`` —
        #: timeout firing, late callbacks, interrupt delivery, process
        #: bootstrap — with no shadow Event allocated.
        self._heap: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._catch_process_errors = catch_process_errors
        self._event_count = 0

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, label: str = "") -> Process:
        return Process(self, generator, label=label)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total events processed so far (kernel throughput metric)."""
        return self._event_count

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now + delay, seq, None, event))

    def _schedule_callback(self, fn: Callable[[Event], None],
                           event: Event) -> None:
        """Run ``fn(event)`` for an already-processed event, ASAP."""
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now, seq, fn, event))

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
        """Process exactly one event (or deferred kernel call)."""
        if not self._heap:
            raise SimulationError("step() on empty event heap")
        t, _key, fn, arg = _heappop(self._heap)
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

        ``until`` may be ``None`` (run to heap exhaustion), a number (run to
        that simulated time), or an :class:`Event` (run until it triggers
        and return its value).

        The ``step`` body is inlined into each loop below: one Python
        function call per event is the single largest fixed cost in the
        kernel, and these loops process millions of events per run.  The
        event count is accumulated locally and flushed in ``finally`` so
        ``processed_events`` stays correct even when a process error
        propagates out mid-run.
        """
        heap = self._heap
        pop = _heappop
        processed = _PROCESSED
        count = 0
        if until is None:
            try:
                while heap:
                    t, _key, fn, arg = pop(heap)
                    self.now = t
                    count += 1
                    if fn is not None:
                        fn(arg)
                    else:
                        callbacks = arg.callbacks
                        arg.callbacks = processed
                        if callbacks is not None:
                            if type(callbacks) is list:
                                for cb in callbacks:
                                    cb(arg)
                            else:
                                callbacks(arg)
            finally:
                self._event_count += count
            return None
        if isinstance(until, Event):
            target = until
            try:
                while target.callbacks is not processed:
                    if not heap:
                        raise SimulationError(
                            "simulation ran out of events before the awaited"
                            f" event triggered: {target!r} — deadlock?")
                    t, _key, fn, arg = pop(heap)
                    self.now = t
                    count += 1
                    if fn is not None:
                        fn(arg)
                    else:
                        callbacks = arg.callbacks
                        arg.callbacks = processed
                        if callbacks is not None:
                            if type(callbacks) is list:
                                for cb in callbacks:
                                    cb(arg)
                            else:
                                callbacks(arg)
            finally:
                self._event_count += count
            return target.value
        deadline = float(until)
        if deadline < self.now:
            raise ValueError(f"run(until={deadline}) is in the past "
                             f"(now={self.now})")
        try:
            while heap and heap[0][0] <= deadline:
                t, _key, fn, arg = pop(heap)
                self.now = t
                count += 1
                if fn is not None:
                    fn(arg)
                else:
                    callbacks = arg.callbacks
                    arg.callbacks = processed
                    if callbacks is not None:
                        if type(callbacks) is list:
                            for cb in callbacks:
                                cb(arg)
                        else:
                            callbacks(arg)
        finally:
            self._event_count += count
        self.now = deadline
        return None

    def peek(self) -> float:
        """Time of the next event, or +inf when the heap is empty."""
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
