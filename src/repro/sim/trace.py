"""Structured operation tracing for experiment debugging.

A :class:`Tracer` collects timestamped, typed events from any actor that
chooses to emit them (clients, commit processes, servers).  It is *off* by
default — nothing in the hot path touches it unless a tracer is installed
— and exists for the workflows a reproduction keeps needing:

* "why did this op take 3 ms?" → dump the span tree for one op id
  (``pacon-bench mdtest --profile-out`` and :meth:`Tracer.span_trees`),
* "what did the commit process do between the barrier and the rmdir?" →
  filter by actor and time window
  (``pacon-bench mdtest --log-out --since --until``),
* regression diffing: two runs with the same seed produce identical traces,
  so ``diff`` localizes a behavior change to the first divergent event.

Beyond flat events, the tracer understands **causal spans**: every client
operation opens a root span (``op.start``/``op.end``), and each child
stage it exercises — cache KV service, network transfers, service worker
queues, barrier rendezvous, commit-queue residency — emits a
``span.start``/``span.end`` pair carrying a :class:`SpanContext`
(``op_id``, ``span_id``, ``parent_id``).  One parser
(:meth:`Tracer.op_rows`) reads them back; :meth:`Tracer.span_trees`
wraps each op's rows into a tree and :meth:`Tracer.attributions` folds
each op's rows along the client critical path, bucketing its wall time into
the :data:`ATTRIBUTION_BUCKETS` with an explicit residual.

Past :data:`SAMPLED_OPS` the tracer keeps whole span trees for an evenly
spread, deterministic sample of ops instead of every op (head sampling:
the keep-or-drop decision is made once, at the root).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import (Any, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER", "SpanContext", "Span",
           "OpRows", "ATTRIBUTION_BUCKETS", "SAMPLED_OPS"]

#: The trace-sampling budget.  An op is traced when ``op_id % stride ==
#: 0``; the stride starts at 1 and doubles whenever the traced count
#: reaches ``2 * SAMPLED_OPS``, dropping the ops that fell out of the
#: sample.  So a run of up to ``2 * SAMPLED_OPS - 1`` ops is traced whole,
#: and a longer one keeps between ``SAMPLED_OPS`` and ``2 * SAMPLED_OPS -
#: 1`` whole trees, spread evenly over it.
SAMPLED_OPS = 1024

#: Latency-attribution buckets for one client operation's wall time.
#: Anything not covered (client CPU charges, permission checks, DFS data
#: I/O, ...) lands in the reported residual — never silently hidden.
ATTRIBUTION_BUCKETS = ("cache", "network", "queue_wait", "barrier",
                       "mds_service", "mds_queue")


# The log is one flat list holding each event's seven fields in
# :class:`TraceEvent` order, back to back: recording an event allocates no
# object that outlives the call, and the list holds only floats, ints,
# strings and None, none of which the cyclic GC tracks — so however long
# the log grows, a collection walks one list, not one record per event.
# :meth:`Tracer.events` hands readers :class:`TraceEvent` views; the
# parsers read the fields of :func:`_rows` by position.  Span contexts
# are short-lived and stay NamedTuples, built with ``_record(cls,
# fields)``, which skips the Python-level ``__new__`` a NamedTuple call
# goes through.
_record = tuple.__new__


class SpanContext(NamedTuple):
    """Causal identity of one span: which op, which span, which parent."""

    op_id: int
    span_id: int
    parent_id: Optional[int] = None


class TraceEvent(NamedTuple):
    """One timestamped event, as :meth:`Tracer.events` hands it out."""

    time: float
    actor: str
    kind: str          # e.g. "op.start", "op.end", "span.start", "commit"
    detail: str = ""
    op_id: Optional[int] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    def render(self) -> str:
        tag = f"#{self.op_id}" if self.op_id is not None else ""
        return (f"{self.time * 1e6:12.2f}us {self.actor:<24}"
                f" {self.kind:<12} {tag:<8} {self.detail}")


#: Log slots per event.
_WIDTH = len(TraceEvent._fields)


def _rows(log: List[Any]) -> Iterator[tuple]:
    """The events of a flat log, one field tuple each."""
    it = iter(log)
    return zip(*[it] * _WIDTH)


@dataclass(slots=True)
class Span:
    """One reassembled span; ``end`` is None while the span is open."""

    op_id: int
    span_id: int
    parent_id: Optional[int]
    actor: str
    category: str
    name: str
    start: float
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        dur = ("open" if self.end is None
               else f"{(self.end - self.start) * 1e6:.2f}us")
        lines = [f"{'  ' * indent}{self.category}:{self.name}"
                 f" [{dur}] ({self.actor})"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass(slots=True)
class OpRows:
    """One op's share of the event log, as :meth:`Tracer.op_rows` parses
    it: each event's field tuple (:class:`TraceEvent` order), keyed for
    the readers — nothing else is allocated per span."""

    #: The op's ``op.start`` event.
    begin: Optional[tuple] = None
    #: Time of its ``op.end``; None while the op is open.
    end: Optional[float] = None
    #: Span id -> ``span.start`` event of each stage, in log order (and
    #: the root's span id -> ``begin``).
    starts: Dict[int, tuple] = field(default_factory=dict)
    #: Span id -> end time of each stage that closed.
    ends: Dict[int, float] = field(default_factory=dict)


class Tracer:
    """Append-only, filterable event log with span reassembly."""

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = capacity
        #: The flat event log (see ``_rows``).
        self._log: List[Any] = []
        self.dropped = 0
        self._next_op_id = 0
        self._next_span_id = 0
        self.enabled = True
        #: The sample (see :data:`SAMPLED_OPS`): ops whose id is a
        #: multiple of ``_stride``.
        self._stride = 1
        #: Per-process stacks of in-flight span contexts, holding only
        #: processes that carry one.  Child stages running inside the same
        #: DES process (cache RPCs, network transfers) look their parent
        #: up here; cross-process stages (commit drain) carry the ids on
        #: their messages instead.
        self._ctx: Dict[Any, List[SpanContext]] = {}
        #: ``traces(process)``: whether ``process`` carries an in-flight
        #: span context.  Call sites that would build arguments for
        #: :meth:`open_child` (a formatted stage name, a process to carry
        #: through an RPC) test this first, so a process serving no
        #: traced op builds nothing; bound to the dict's own membership
        #: test, the check costs no Python-level call.
        self.traces = self._ctx.__contains__

    # -- emission ----------------------------------------------------------
    def new_op_id(self) -> int:
        self._next_op_id += 1
        return self._next_op_id

    def sampled(self, op_id: int) -> bool:
        """Whether op ``op_id`` is (still) in the sample."""
        return op_id % self._stride == 0

    def emit(self, time: float, actor: str, kind: str, detail: str = "",
             op_id: Optional[int] = None,
             span_id: Optional[int] = None) -> None:
        if not self.enabled:
            return
        if op_id is not None and op_id % self._stride:
            return
        if len(self._log) >= self.capacity * _WIDTH:
            self.dropped += 1
            return
        self._log += time, actor, kind, detail, op_id, span_id, None

    # -- span contexts -----------------------------------------------------
    def root_context(self) -> Optional[SpanContext]:
        """A fresh root context for one client operation, or None when the
        op falls outside the sample.  Every op takes the next op id either
        way, so ids stay op indices."""
        op_id = self.new_op_id()
        stride = self._stride
        if op_id % stride:
            return None
        if op_id // stride >= 2 * SAMPLED_OPS:
            # The first op here has ``op_id // stride == 2 * SAMPLED_OPS``,
            # an even number, so it stays in the thinned sample.
            self._thin()
        self._next_span_id += 1
        return _record(SpanContext, (op_id, self._next_span_id, None))

    def _thin(self) -> None:
        """Double the stride and drop the events of every op that fell out
        of the sample, in one rebuild of the log.  Flat events (no op id)
        stay."""
        self._stride = stride = self._stride * 2
        keep = [op_id is None or op_id % stride == 0
                for op_id in self._log[4::_WIDTH]]
        self._log = list(chain.from_iterable(compress(_rows(self._log),
                                                      keep)))

    def adopt_context(self, op_id: int, span_id: int) -> SpanContext:
        """Rebuild a context from ids carried across a process boundary
        (e.g. on an OpMessage), so downstream spans parent correctly."""
        return _record(SpanContext, (op_id, span_id, None))

    def push_context(self, process: Any, ctx: SpanContext) -> None:
        self._ctx.setdefault(process, []).append(ctx)

    def pop_context(self, process: Any, ctx: SpanContext) -> None:
        stack = self._ctx.get(process)
        if stack and stack[-1] is ctx:
            stack.pop()
        if not stack:
            self._ctx.pop(process, None)

    def open_child(self, process: Any, time: float, actor: str,
                   category: str, name: str = "") -> Optional[SpanContext]:
        """Open a child span under ``process``'s innermost in-flight span:
        the one way a stage (cache RPC, network hop, worker queue, commit
        queue residency) attaches itself to the op it serves — the only
        place that allocates a child span id and writes a ``span.start``.
        Returns the child's context for :meth:`span_end`, or None when
        the process carries no op (set-up work, the commit loop between
        ops, an op outside the sample) or its op was thinned out of the
        sample while in flight.
        """
        stack = self._ctx.get(process)
        if not stack:
            return None
        op_id, parent_id, _ = stack[-1]
        if op_id % self._stride:
            return None
        self._next_span_id = span_id = self._next_span_id + 1
        if self.enabled:
            if len(self._log) >= self.capacity * _WIDTH:
                self.dropped += 1
            else:
                self._log += (time, actor, "span.start",
                              f"{category} {name}" if name else category,
                              op_id, span_id, parent_id)
        return _record(SpanContext, (op_id, span_id, parent_id))

    def span_end(self, time: float, actor: str, ctx: SpanContext) -> None:
        if not self.enabled or ctx[0] % self._stride:
            return
        if len(self._log) >= self.capacity * _WIDTH:
            self.dropped += 1
            return
        self._log += (time, actor, "span.end", "") + ctx

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._log) // _WIDTH

    def events(self, actor: Optional[str] = None,
               kind: Optional[str] = None,
               op_id: Optional[int] = None,
               since: float = 0.0,
               until: float = float("inf")) -> Iterator[TraceEvent]:
        for ev in _rows(self._log):
            if actor is not None and ev[1] != actor:
                continue
            if kind is not None and ev[2] != kind:
                continue
            if op_id is not None and ev[4] != op_id:
                continue
            if not (since <= ev[0] <= until):
                continue
            yield _record(TraceEvent, ev)

    def op_rows(self) -> Dict[int, OpRows]:
        """The one parser of the event log: ``{op_id: OpRows}`` for every
        op that emitted an ``op.start``, in one pass.  Every reader below
        takes these rows; one that needs several answers parses once and
        hands the rows to each.
        """
        ops: Dict[int, OpRows] = {}
        for ev in _rows(self._log):
            time, _, kind, _, op_id, span_id, _ = ev
            if op_id is None:
                continue
            op = ops.get(op_id)
            if op is None:
                op = ops[op_id] = OpRows()
            if kind == "span.start":
                if span_id is not None:
                    op.starts[span_id] = ev
            elif kind == "span.end":
                if span_id in op.starts:
                    op.ends[span_id] = time
            elif kind == "op.start":
                op.begin, op.end = ev, None
                if span_id is not None:
                    op.starts[span_id] = ev
            elif kind == "op.end" and op.begin is not None:
                op.end = time
        return {op_id: op for op_id, op in ops.items()
                if op.begin is not None}

    def spans(self) -> Dict[int, Tuple[float, Optional[float], str]]:
        """op_id -> (start, end, detail) for op.start/op.end events.

        Still-open operations (an ``op.start`` with no matching ``op.end``
        yet — a hung or in-flight op) are returned as open-ended entries
        with ``end is None`` rather than silently dropped.
        """
        return {op_id: (op.begin[0], op.end, op.begin[3])
                for op_id, op in self.op_rows().items()}

    def open_span_count(self,
                        ops: Optional[Dict[int, OpRows]] = None) -> int:
        """Number of op spans started but not yet ended (hung ops), from
        ``ops`` (an :meth:`op_rows` result) or a fresh parse."""
        if ops is None:
            ops = self.op_rows()
        return sum(1 for op in ops.values() if op.end is None)

    # -- span trees and latency attribution ------------------------------------
    def span_trees(self) -> Dict[int, Span]:
        """All ops' causal span trees: the parsed rows wrapped into
        :class:`Span` objects, for the readers that render trees.

        Returns ``{op_id: root Span}`` for every op that emitted an
        ``op.start`` (roots of never-completed ops have ``end is None``):
        the client op span, with child stages attached via their
        ``parent_id`` links.  Spans whose parent is unknown
        (cross-process stages emitted before their parent's start was
        recorded, capacity drops) attach to the root so nothing
        disappears.
        """
        trees: Dict[int, Span] = {}
        for op_id, op in self.op_rows().items():
            time, actor, _, detail, _, root_id, _ = begin = op.begin
            trees[op_id] = root = Span(op_id, root_id or 0, None, actor,
                                       "op", detail, time, op.end)
            made: Dict[Optional[int], Span] = {root_id: root}
            for span_id, ev in op.starts.items():
                if ev is not begin:
                    time, actor, _, detail, _, _, parent_id = ev
                    category, _, name = detail.partition(" ")
                    made[span_id] = Span(
                        op_id, span_id, parent_id, actor, category, name,
                        time, op.ends.get(span_id))
            for parent_id, stages in _children(op).items():
                made[parent_id].children = [made[ev[5]] for ev in stages]
        return trees

    def attributions(self, ops: Optional[Dict[int, OpRows]] = None,
                     ) -> Dict[int, Dict[str, Any]]:
        """Critical-path wall-time decomposition for every *completed* op,
        keyed by op_id, from ``ops`` (an :meth:`op_rows` result) or a
        fresh parse.

        Folds each op's stage spans, each clipped to the client span's
        ``[start, end]`` window (stages that resolved after the op
        returned — e.g. the asynchronous commit — contribute nothing to
        the *client-visible* latency), into the in-window time per
        :data:`ATTRIBUTION_BUCKETS` category.  The residual
        (``duration - sum(buckets)``: client CPU charges, permission
        checks, uncategorized stages) is reported explicitly, never
        hidden.
        """
        if ops is None:
            ops = self.op_rows()
        return {op_id: _attribute(op) for op_id, op in ops.items()
                if op.end is not None}

    def render(self, limit: int = 200, **filters: Any) -> str:
        lines = [ev.render() for ev in self.events(**filters)]
        clipped = len(lines) - limit
        lines = lines[:limit]
        if clipped > 0:
            lines.append(f"... {clipped} more events")
        open_spans = self.open_span_count()
        if open_spans > 0:
            lines.append(f"... {open_spans} spans still open")
        sampling = self.sampling_note()
        if sampling:
            lines.append(sampling)
        if self.dropped > 0:
            lines.append(f"... {self.dropped} events dropped"
                         f" (capacity {self.capacity})")
        return "\n".join(lines)

    def sampling_note(self) -> str:
        """``... traced 1 in K ops (M of N)`` once the sample has thinned
        (K > 1), else the empty string."""
        stride, ops = self._stride, self._next_op_id
        if stride == 1:
            return ""
        return f"... traced 1 in {stride} ops ({ops // stride} of {ops})"


def _children(op: OpRows, before: float = float("inf"),
              ) -> Dict[Optional[int], List[tuple]]:
    """An op's stage ``span.start`` events by parent span id, each list
    in log order, leaving out stages that start at or after ``before``
    (a stage never starts before its parent, so this cuts whole
    subtrees).  A stage whose parent id is unknown hangs off the root, so
    nothing else disappears."""
    begin, starts = op.begin, op.starts
    root_id = begin[5]
    children: Dict[Optional[int], List[tuple]] = {}
    for ev in starts.values():
        if ev is begin or ev[0] >= before:
            continue
        parent = ev[6]
        if parent not in starts:
            parent = root_id
        siblings = children.get(parent)
        if siblings is None:
            children[parent] = [ev]
        else:
            siblings.append(ev)
    return children


def _attribute(op: OpRows) -> Dict[str, Any]:
    """Bucket a completed op's wall time (see Tracer.attributions).

    The stages are folded in pre-order, children in ``span.start`` order,
    which fixes the order each bucket's floats are summed in (the
    exported means are pinned byte for byte).  Stages that start once
    the op has ended (the asynchronous commit's) overlap it by nothing,
    so their subtrees are not walked.
    """
    begin, t1, ends = op.begin, op.end, op.ends
    t0, actor, _, detail, _, root_id, _ = begin
    buckets = dict.fromkeys(ATTRIBUTION_BUCKETS, 0.0)
    children = _children(op, t1)
    stack = children.pop(root_id, [])
    stack.reverse()
    while stack:
        start, _, _, stage, _, span_id, _ = stack.pop()
        below = children.pop(span_id, None)
        if below:
            below.reverse()
            stack += below
        category = stage.partition(" ")[0]
        if category not in buckets:
            continue
        # The stage clipped to the op's window; still open counts as
        # running to the op's end.
        end = ends.get(span_id, t1)
        overlap = (end if end < t1 else t1) - (start if start > t0 else t0)
        if overlap > 0:
            buckets[category] += overlap
    duration = t1 - t0
    residual = duration - sum(buckets.values())
    return {
        "op": detail.partition(" ")[0],
        "detail": detail,
        "actor": actor,
        "start": t0,
        "duration": duration,
        "buckets": buckets,
        "residual": residual,
    }


#: The shared disabled tracer: ``emit`` returns before recording, and call
#: sites check ``enabled`` before building anything to hand it.
NULL_TRACER = Tracer(capacity=0)
NULL_TRACER.enabled = False
