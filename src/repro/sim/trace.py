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
(``op_id``, ``span_id``, ``parent_id``).  :meth:`Tracer.span_tree`
reassembles the tree for one op and :meth:`Tracer.attribution` walks the
client critical path, bucketing the op's wall time into the
:data:`ATTRIBUTION_BUCKETS` with an explicit residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER", "SpanContext", "Span",
           "ATTRIBUTION_BUCKETS"]

#: Latency-attribution buckets for one client operation's wall time.
#: Anything not covered (client CPU charges, permission checks, DFS data
#: I/O, ...) lands in the reported residual — never silently hidden.
ATTRIBUTION_BUCKETS = ("cache", "network", "queue_wait", "barrier",
                       "publish_stall", "mds_service", "mds_queue")


@dataclass(frozen=True)
class SpanContext:
    """Causal identity of one span: which op, which span, which parent."""

    op_id: int
    span_id: int
    parent_id: Optional[int] = None


@dataclass(frozen=True)
class TraceEvent:
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


@dataclass
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

    def new_span_id(self) -> int:
        self._next_span_id += 1
        return self._next_span_id

    def emit(self, time: float, actor: str, kind: str, detail: str = "",
             op_id: Optional[int] = None, span_id: Optional[int] = None,
             parent_id: Optional[int] = None) -> None:
        if not self.enabled:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(TraceEvent(time, actor, kind, detail, op_id,
                                       span_id, parent_id))

    # -- span contexts -----------------------------------------------------
    def root_context(self) -> SpanContext:
        """A fresh root context for one client operation."""
        return SpanContext(op_id=self.new_op_id(),
                           span_id=self.new_span_id(), parent_id=None)

    def adopt_context(self, op_id: int, span_id: int) -> SpanContext:
        """Rebuild a context from ids carried across a process boundary
        (e.g. on an OpMessage), so downstream spans parent correctly."""
        return SpanContext(op_id=op_id, span_id=span_id, parent_id=None)

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
        queue residency) attaches itself to the op it serves.  Returns the
        child's context for :meth:`span_end`, or None when the process
        carries no op (set-up work, the commit loop between ops).
        """
        stack = self._ctx.get(process)
        if not stack:
            return None
        parent = stack[-1]
        ctx = SpanContext(op_id=parent.op_id, span_id=self.new_span_id(),
                          parent_id=parent.span_id)
        self.span_start(time, actor, ctx, category, name)
        return ctx

    def span_start(self, time: float, actor: str, ctx: SpanContext,
                   category: str, name: str = "") -> None:
        detail = f"{category} {name}".rstrip()
        self.emit(time, actor, "span.start", detail, op_id=ctx.op_id,
                  span_id=ctx.span_id, parent_id=ctx.parent_id)

    def span_end(self, time: float, actor: str, ctx: SpanContext) -> None:
        self.emit(time, actor, "span.end", "", op_id=ctx.op_id,
                  span_id=ctx.span_id, parent_id=ctx.parent_id)

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

    def spans(self) -> Dict[int, Tuple[float, Optional[float], str]]:
        """op_id -> (start, end, detail) for op.start/op.end events.

        Still-open operations (an ``op.start`` with no matching ``op.end``
        yet — a hung or in-flight op) are returned as open-ended entries
        with ``end is None`` rather than silently dropped.
        """
        starts: Dict[int, TraceEvent] = {}
        out: Dict[int, Tuple[float, Optional[float], str]] = {}
        for ev in self._events:
            if ev.op_id is None:
                continue
            if ev.kind == "op.start":
                starts[ev.op_id] = ev
            elif ev.kind == "op.end" and ev.op_id in starts:
                begin = starts.pop(ev.op_id)
                out[ev.op_id] = (begin.time, ev.time, begin.detail)
        for op_id, begin in starts.items():
            out[op_id] = (begin.time, None, begin.detail)
        return out

    def open_span_count(self) -> int:
        """Number of op spans started but not yet ended (hung ops)."""
        return sum(1 for _s, end, _d in self.spans().values() if end is None)

    # -- span trees and latency attribution ------------------------------------
    def span_trees(self) -> Dict[int, Span]:
        """All ops' span trees, assembled in one pass over the event log.

        Returns ``{op_id: root Span}`` for every op that emitted an
        ``op.start`` (roots of never-completed ops have ``end is None``).
        """
        roots: Dict[int, Span] = {}
        spans: Dict[int, Dict[int, Span]] = {}
        for ev in self._events:
            if ev.op_id is None:
                continue
            per_op = spans.setdefault(ev.op_id, {})
            if ev.kind == "op.start":
                root = Span(op_id=ev.op_id, span_id=ev.span_id or 0,
                            parent_id=None, actor=ev.actor, category="op",
                            name=ev.detail, start=ev.time)
                roots[ev.op_id] = root
                if ev.span_id is not None:
                    per_op[ev.span_id] = root
            elif ev.kind == "op.end":
                root = roots.get(ev.op_id)
                if root is not None:
                    root.end = ev.time
            elif ev.kind == "span.start" and ev.span_id is not None:
                parts = ev.detail.split(" ", 1)
                per_op[ev.span_id] = Span(
                    op_id=ev.op_id, span_id=ev.span_id,
                    parent_id=ev.parent_id, actor=ev.actor,
                    category=parts[0] if parts else "",
                    name=parts[1] if len(parts) > 1 else "",
                    start=ev.time)
            elif ev.kind == "span.end" and ev.span_id in per_op:
                per_op[ev.span_id].end = ev.time
        for op_id, root in roots.items():
            per_op = spans.get(op_id, {})
            for span in per_op.values():
                if span is root:
                    continue
                parent = (per_op.get(span.parent_id)
                          if span.parent_id is not None else None)
                (parent if parent is not None else root).children.append(span)
        return roots

    def attributions(self) -> Dict[int, Dict[str, Any]]:
        """Latency attribution for every *completed* op, keyed by op_id."""
        out: Dict[int, Dict[str, Any]] = {}
        for op_id, root in self.span_trees().items():
            if root.end is None:
                continue
            out[op_id] = _attribute(root)
        return out

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

        Walks the op's span tree, clips every stage span to the client
        span's ``[start, end]`` window (stages that resolved after the op
        returned — e.g. the asynchronous commit — contribute nothing to
        the *client-visible* latency), and sums the in-window time per
        :data:`ATTRIBUTION_BUCKETS` category.  The residual
        (``duration - sum(buckets)``: client CPU charges, permission
        checks, uncategorized stages) is reported explicitly, never
        hidden.  Returns None for ops that never completed.
        """
        root = self.span_tree(op_id)
        if root is None or root.end is None:
            return None
        return _attribute(root)

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


def _attribute(root: Span) -> Dict[str, Any]:
    """Bucket a completed root span's wall time (see Tracer.attribution)."""
    t0, t1 = root.start, root.end
    buckets = {name: 0.0 for name in ATTRIBUTION_BUCKETS}
    for span in root.walk():
        if span is root or span.category not in buckets:
            continue
        end = t1 if span.end is None else span.end
        overlap = min(end, t1) - max(span.start, t0)
        if overlap > 0:
            buckets[span.category] += overlap
    duration = t1 - t0
    residual = duration - sum(buckets.values())
    return {
        "op": root.name.split(" ", 1)[0] if root.name else "",
        "detail": root.name,
        "actor": root.actor,
        "start": t0,
        "duration": duration,
        "buckets": buckets,
        "residual": residual,
    }


#: The shared disabled tracer: ``emit`` returns before recording, and call
#: sites check ``enabled`` before building anything to hand it.
NULL_TRACER = Tracer(capacity=0)
NULL_TRACER.enabled = False
