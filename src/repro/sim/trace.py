"""Structured operation tracing for experiment debugging.

A :class:`Tracer` collects timestamped, typed events from any actor that
chooses to emit them (clients, commit processes, servers).  It is *off* by
default — nothing in the hot path touches it unless a tracer is installed
— and exists for the workflows a reproduction keeps needing:

* "why did this op take 3 ms?" → dump the span tree for one op id
  (``pacon-bench profile`` and :meth:`Tracer.span_tree`),
* "what did the commit process do between the barrier and the rmdir?" →
  filter by actor and time window (``pacon-bench trace --since --until``),
* regression diffing: two runs with the same seed produce identical traces,
  so ``diff`` localizes a behavior change to the first divergent event.

Beyond flat events, the tracer understands **causal spans**: every client
operation opens a root span (``op.start``/``op.end``), and each child
stage it exercises — cache KV service, network transfers, service worker
queues, barrier rendezvous, commit-queue residency — emits a
``span.start``/``span.end`` pair carrying a :class:`SpanContext`
(``op_id``, ``span_id``, ``parent_id``).  One parser
(:meth:`Tracer.op_rows`) reads them back; :meth:`Tracer.span_tree`
wraps one op's rows into a tree and :meth:`Tracer.attribution` folds
them along the client critical path, bucketing the op's wall time into
the :data:`ATTRIBUTION_BUCKETS` with an explicit residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER", "SpanContext", "Span",
           "OpRows", "ATTRIBUTION_BUCKETS"]

#: Latency-attribution buckets for one client operation's wall time.
#: Anything not covered (client CPU charges, permission checks, DFS data
#: I/O, ...) lands in the reported residual — never silently hidden.
ATTRIBUTION_BUCKETS = ("cache", "network", "queue_wait", "barrier",
                       "publish_stall", "mds_service", "mds_queue")


# Records are tuples: one small allocation per recorded fact, no
# per-instance ``__dict__``, and untracked by the cyclic GC once it has
# looked at them (they hold only scalars and strings).  The recording
# paths build them with ``_record(cls, fields)``, which skips the
# Python-level ``__new__`` a NamedTuple call goes through.
_record = tuple.__new__


class SpanContext(NamedTuple):
    """Causal identity of one span: which op, which span, which parent."""

    op_id: int
    span_id: int
    parent_id: Optional[int] = None


class TraceEvent(NamedTuple):
    """One timestamped event."""

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
    it: the events themselves, keyed for the readers — nothing is
    allocated per span."""

    #: The op's ``op.start`` event.
    begin: Optional[TraceEvent] = None
    #: Time of its ``op.end``; None while the op is open.
    end: Optional[float] = None
    #: Span id -> ``span.start`` event of each stage, in log order (and
    #: the root's span id -> ``begin``).
    starts: Dict[int, TraceEvent] = field(default_factory=dict)
    #: Span id -> end time of each stage that closed.
    ends: Dict[int, float] = field(default_factory=dict)


class Tracer:
    """Append-only, filterable event log with span reassembly."""

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self.dropped = 0
        self._next_op_id = 0
        self._next_span_id = 0
        self.enabled = True
        #: Per-process stacks of in-flight span contexts.  Child stages
        #: running inside the same DES process (cache RPCs, network
        #: transfers) look their parent up here; cross-process stages
        #: (commit drain) carry the ids on their messages instead.
        self._ctx: Dict[Any, List[SpanContext]] = {}

    # -- emission ----------------------------------------------------------
    def new_op_id(self) -> int:
        self._next_op_id += 1
        return self._next_op_id

    def emit(self, time: float, actor: str, kind: str, detail: str = "",
             op_id: Optional[int] = None, span_id: Optional[int] = None,
             parent_id: Optional[int] = None) -> None:
        if not self.enabled:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(_record(TraceEvent, (
            time, actor, kind, detail, op_id, span_id, parent_id)))

    # -- span contexts -----------------------------------------------------
    def root_context(self) -> SpanContext:
        """A fresh root context for one client operation."""
        self._next_span_id += 1
        return _record(SpanContext, (self.new_op_id(), self._next_span_id,
                                     None))

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
        ops).
        """
        stack = self._ctx.get(process)
        if not stack:
            return None
        op_id, parent_id, _ = stack[-1]
        self._next_span_id = span_id = self._next_span_id + 1
        if self.enabled:
            if len(self._events) >= self.capacity:
                self.dropped += 1
            else:
                self._events.append(_record(TraceEvent, (
                    time, actor, "span.start",
                    f"{category} {name}" if name else category,
                    op_id, span_id, parent_id)))
        return _record(SpanContext, (op_id, span_id, parent_id))

    def span_end(self, time: float, actor: str, ctx: SpanContext) -> None:
        if not self.enabled:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(_record(
            TraceEvent, (time, actor, "span.end", "") + ctx))

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self, actor: Optional[str] = None,
               kind: Optional[str] = None,
               op_id: Optional[int] = None,
               since: float = 0.0,
               until: float = float("inf")) -> Iterator[TraceEvent]:
        for ev in self._events:
            if actor is not None and ev.actor != actor:
                continue
            if kind is not None and ev.kind != kind:
                continue
            if op_id is not None and ev.op_id != op_id:
                continue
            if not (since <= ev.time <= until):
                continue
            yield ev

    def op_rows(self) -> Dict[int, OpRows]:
        """The one parser of the event log: ``{op_id: OpRows}`` for every
        op that emitted an ``op.start``, in one pass.  Every reader below
        takes these rows; one that needs several answers parses once and
        hands the rows to each.
        """
        ops: Dict[int, OpRows] = {}
        for ev in self._events:
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
        return {op_id: (op.begin.time, op.end, op.begin.detail)
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
        """All ops' span trees: the parsed rows wrapped into :class:`Span`
        objects, for the readers that render trees.

        Returns ``{op_id: root Span}`` for every op that emitted an
        ``op.start`` (roots of never-completed ops have ``end is None``).
        """
        trees: Dict[int, Span] = {}
        for op_id, op in self.op_rows().items():
            begin = op.begin
            trees[op_id] = root = Span(
                op_id, begin.span_id or 0, None, begin.actor, "op",
                begin.detail, begin.time, op.end)
            made: Dict[Optional[int], Span] = {begin.span_id: root}
            for span_id, ev in op.starts.items():
                if ev is not begin:
                    category, _, name = ev.detail.partition(" ")
                    made[span_id] = Span(
                        op_id, span_id, ev.parent_id, ev.actor, category,
                        name, ev.time, op.ends.get(span_id))
            for parent_id, stages in _children(op).items():
                made[parent_id].children = [made[ev.span_id]
                                            for ev in stages]
        return trees

    def attributions(self, ops: Optional[Dict[int, OpRows]] = None,
                     ) -> Dict[int, Dict[str, Any]]:
        """Latency attribution for every *completed* op, keyed by op_id,
        from ``ops`` (an :meth:`op_rows` result) or a fresh parse."""
        if ops is None:
            ops = self.op_rows()
        return {op_id: _attribute(op) for op_id, op in ops.items()
                if op.end is not None}

    def span_tree(self, op_id: int) -> Optional[Span]:
        """The causal span tree of one operation, or None if it never
        started: the root :class:`Span` (the client op span) with child
        stages attached via their ``parent_id`` links.  Spans whose parent
        is unknown (cross-process stages emitted before their parent's
        start was recorded, capacity drops) attach to the root so nothing
        disappears.
        """
        return self.span_trees().get(op_id)

    def attribution(self, op_id: int) -> Optional[Dict[str, Any]]:
        """Critical-path wall-time decomposition for one completed op.

        Folds the op's stage spans, each clipped to the client span's
        ``[start, end]`` window (stages that resolved after the op
        returned — e.g. the asynchronous commit — contribute nothing to
        the *client-visible* latency), into the in-window time per
        :data:`ATTRIBUTION_BUCKETS` category.  The residual
        (``duration - sum(buckets)``: client CPU charges, permission
        checks, uncategorized stages) is reported explicitly, never
        hidden.  Returns None for ops that never completed.
        """
        return self.attributions().get(op_id)

    def render(self, limit: int = 200, **filters: Any) -> str:
        lines = [ev.render() for ev in self.events(**filters)]
        clipped = len(lines) - limit
        lines = lines[:limit]
        if clipped > 0:
            lines.append(f"... {clipped} more events")
        open_spans = self.open_span_count()
        if open_spans > 0:
            lines.append(f"... {open_spans} spans still open")
        if self.dropped > 0:
            lines.append(f"... {self.dropped} events dropped"
                         f" (capacity {self.capacity})")
        return "\n".join(lines)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self._ctx.clear()


def _children(op: OpRows) -> Dict[Optional[int], List[TraceEvent]]:
    """An op's stage ``span.start`` events by parent span id, each list
    in log order.  A stage whose parent id is unknown hangs off the root,
    so nothing disappears."""
    begin, starts = op.begin, op.starts
    root_id = begin.span_id
    children: Dict[Optional[int], List[TraceEvent]] = {}
    for ev in starts.values():
        if ev is begin:
            continue
        parent = ev.parent_id
        if parent not in starts:
            parent = root_id
        siblings = children.get(parent)
        if siblings is None:
            children[parent] = [ev]
        else:
            siblings.append(ev)
    return children


def _attribute(op: OpRows) -> Dict[str, Any]:
    """Bucket a completed op's wall time (see Tracer.attribution).

    The stages are folded in pre-order, children in ``span.start`` order,
    which fixes the order each bucket's floats are summed in (the
    exported means are pinned byte for byte).
    """
    begin, t1, ends = op.begin, op.end, op.ends
    t0 = begin.time
    buckets = dict.fromkeys(ATTRIBUTION_BUCKETS, 0.0)
    children = _children(op)
    stack = children.pop(begin.span_id, [])
    stack.reverse()
    while stack:
        start, _, _, detail, _, span_id, _ = stack.pop()
        below = children.pop(span_id, None)
        if below:
            below.reverse()
            stack += below
        category = detail.partition(" ")[0]
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
        "op": begin.detail.partition(" ")[0],
        "detail": begin.detail,
        "actor": begin.actor,
        "start": t0,
        "duration": duration,
        "buckets": buckets,
        "residual": residual,
    }


#: The shared disabled tracer: ``emit`` returns before recording, and call
#: sites check ``enabled`` before building anything to hand it.
NULL_TRACER = Tracer(capacity=0)
NULL_TRACER.enabled = False
