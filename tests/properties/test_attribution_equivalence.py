"""Property: the row fold attributes exactly what the tree walk did.

``Tracer.attributions()`` folds the parsed rows of each op directly; the
code it replaced reassembled a ``Span`` tree per op and walked it.  The
exported means are pinned byte for byte, so the two must agree to the
last float bit — which means the same clipping, the same treatment of
open and orphaned spans, and the same *summation order* (pre-order,
children in ``span.start`` order).  The tree walk is kept here verbatim
as the reference, next to the tree reassembly it walked, and both are
run against event logs a Hypothesis script writes through the tracer's
own recording API:

* flat client ops, with stages opened and closed in any order;
* stages nested under a commit-queue context adopted by another process,
  interleaved with the client's own (log order is then *not* pre-order);
* spans still open at ``op.end``, spans starting after it, ops with no
  ``op.end`` at all;
* children whose parent id is unknown (an adopted context nobody opened);
* logs truncated by a small ``capacity``.
"""

from typing import Any, Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import ATTRIBUTION_BUCKETS, Span, Tracer


# ------------------------------------------------- the reference (old code)
def reference_span_trees(tracer: Tracer) -> Dict[int, Span]:
    """``Tracer.span_trees`` as it was before the row parser."""
    roots: Dict[int, Span] = {}
    spans: Dict[int, Dict[int, Span]] = {}
    for ev in tracer.events():
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


def reference_attribute(root: Span) -> Dict[str, Any]:
    """``_attribute(root)`` as it was: a walk of the reassembled tree."""
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


# ------------------------------------------------------- the log generator
CLIENTS = 3
#: Few buckets, so stages collide in one; one uncounted; one empty.
CATEGORIES = ("network", "network", "cache", "svc_queue", "")
NAMES = ("", "get", "client0->mds0", "a b ")
#: Gaps of very different magnitudes, so that a bucket's float sum
#: depends on the order its stages are added in (``1e16 + 1 + 1`` is not
#: ``1 + 1 + 1e16``), next to ordinary simulated-time gaps.
GAPS = st.one_of(st.sampled_from((0.0, 1.0, 1.0, 3.0, 1e16)),
                 st.floats(0.0, 1e-3, allow_nan=False, width=64))
ACTIONS = ("start", "open", "close", "publish", "end", "adopt",
           "adopt_unknown", "commit_open", "commit_close", "commit_done")

steps = st.lists(
    st.tuples(st.sampled_from(ACTIONS), st.integers(0, CLIENTS - 1),
              st.sampled_from(CATEGORIES), st.sampled_from(NAMES),
              st.integers(0, 7), GAPS),
    max_size=120)

#: The case free-form steps rarely reach: one op whose client stages and
#: adopted commit-queue stages interleave in the log and all overlap the
#: op (they are still open when it ends), so the walk order decides the
#: sum.  Free-form steps follow.
interleaved = st.builds(
    lambda stages, gap, rest: (
        [("start", 0, "", "", 0, 0.0), ("publish", 0, "", "", 0, 1.0),
         ("adopt", 0, "", "", 0, 0.0)]
        + [("commit_open" if commit else "open", 0, "network", "", 0, dt)
           for commit, dt in stages]
        + [("end", 0, "", "", 0, gap)] + rest),
    st.lists(st.tuples(st.booleans(), GAPS), min_size=3, max_size=8),
    GAPS, steps)


def write_log(script, capacity: int) -> Tracer:
    """Interpret ``script`` through the tracer's recording API, the way
    ``core/client.py`` and ``core/commit.py`` drive it; a step that does
    not apply to the current state is skipped."""
    tracer = Tracer(capacity=capacity)
    now = 0.0
    in_flight = {}                  # client -> root ctx
    open_spans = {c: [] for c in range(CLIENTS)}
    queue = []                      # published (op_id, commit-queue span id)
    commit_ctx, commit_spans = None, []
    for action, client, category, name, pick, dt in script:
        now += dt
        proc, actor = f"proc{client}", f"client{client}"
        if action == "start" and client not in in_flight:
            ctx = in_flight[client] = tracer.root_context()
            tracer.push_context(proc, ctx)
            tracer.emit(now, actor, "op.start", f"mkdir /d{ctx.op_id}",
                        ctx.op_id, span_id=ctx.span_id)
        elif action == "open":
            child = tracer.open_child(proc, now, actor, category, name)
            if child is not None:
                open_spans[client].append(child)
        elif action == "close" and open_spans[client]:
            spans = open_spans[client]
            tracer.span_end(now, actor, spans.pop(pick % len(spans)))
        elif action == "publish":
            child = tracer.open_child(proc, now, "commitq", "commit_queue",
                                      name)
            if child is not None:
                queue.append((child.op_id, child.span_id))
        elif action == "end" and client in in_flight:
            ctx = in_flight.pop(client)
            tracer.pop_context(proc, ctx)
            tracer.emit(now, actor, "op.end", "", ctx.op_id,
                        span_id=ctx.span_id)
        elif action == "adopt" and commit_ctx is None and queue:
            commit_ctx = tracer.adopt_context(*queue.pop(pick % len(queue)))
            tracer.push_context("commit", commit_ctx)
        elif (action == "adopt_unknown" and commit_ctx is None
              and in_flight):
            # A context whose span nobody opened: its children's parent
            # id is unknown and they must hang off the op's root.
            op_id = sorted(ctx.op_id for ctx in in_flight.values())[0]
            commit_ctx = tracer.adopt_context(op_id, 10_000 + pick)
            tracer.push_context("commit", commit_ctx)
        elif action == "commit_open":
            child = tracer.open_child("commit", now, "mds0", category, name)
            if child is not None:
                commit_spans.append(child)
        elif action == "commit_close" and commit_spans:
            tracer.span_end(now, "mds0", commit_spans.pop(
                pick % len(commit_spans)))
        elif action == "commit_done" and commit_ctx is not None:
            tracer.pop_context("commit", commit_ctx)
            tracer.span_end(now, "commitq", commit_ctx)
            commit_ctx = None
    return tracer


# -------------------------------------------------------------- properties
@settings(max_examples=300, deadline=None)
@given(script=st.one_of(steps, interleaved),
       capacity=st.one_of(st.just(1_000_000), st.integers(0, 60)))
def test_row_fold_equals_the_tree_walk(script, capacity):
    tracer = write_log(script, capacity)
    reference = reference_span_trees(tracer)
    assert tracer.span_trees() == reference
    expected = {op_id: reference_attribute(root)
                for op_id, root in reference.items() if root.end is not None}
    folded = tracer.attributions()
    assert folded == expected
    # ``==`` already compares the floats exactly; ``repr`` adds the key
    # order of every dict, which the exported JSON inherits.
    assert repr(folded) == repr(expected)
    events = list(tracer.events())
    ended = {ev.op_id for ev in events if ev.kind == "op.end"}
    assert tracer.open_span_count() == sum(
        1 for ev in events if ev.kind == "op.start"
        and ev.op_id not in ended)


def test_the_generator_reaches_the_cases_it_names():
    """One hand-written script with every hard case in it, so the
    property cannot pass by never generating them."""
    script = [("start", 0, "", "", 0, 0.3), ("publish", 0, "", "x", 0, 0.1),
              ("adopt", 0, "", "", 0, 0.0),
              ("open", 0, "network", "A", 0, 0.0),
              ("close", 0, "", "", 0, 0.5),
              ("open", 0, "network", "C", 0, 0.0),
              ("commit_open", 0, "network", "B", 0, 0.4),
              ("close", 0, "", "", 0, 0.6),
              ("commit_close", 0, "", "", 0, 0.6),
              ("open", 0, "cache", "open at the end", 0, 0.0),
              ("end", 0, "", "", 0, 0.05),
              ("commit_open", 0, "cache", "after the end", 0, 0.1),
              ("commit_done", 0, "", "", 0, 0.1),
              ("start", 1, "", "", 0, 0.0),
              ("adopt_unknown", 0, "", "", 3, 0.0),
              ("commit_open", 0, "barrier", "orphan", 0, 0.2),
              ("end", 1, "", "", 0, 0.2),
              ("start", 2, "", "", 0, 0.0)]
    tracer = write_log(script, 1_000_000)
    trees = tracer.span_trees()
    assert trees == reference_span_trees(tracer)
    folded = tracer.attributions()
    assert folded == {op_id: reference_attribute(root)
                      for op_id, root in trees.items()
                      if root.end is not None}
    # Log order is not pre-order: B sits under the commit-queue span, so
    # the walk reaches it before A and C, which were logged first ...
    assert [span.name for span in trees[1].walk()][1:] == \
        ["x", "B", "after the end", "A", "C", "open at the end"]
    # ... and the float sum depends on it: (B + A) + C != (A + C) + B.
    root, ends = trees[1], {ev.span_id: ev.time
                            for ev in tracer.events(kind="span.end")}
    in_log_order = 0.0
    for ev in tracer.events(kind="span.start", op_id=1):
        if ev.detail.startswith("network"):
            in_log_order += ends[ev.span_id] - ev.time
    assert folded[1]["buckets"]["network"] == 2.6999999999999997
    assert in_log_order == 2.7
    # Open at op.end: clipped to the op.  Started after it: nothing.
    assert folded[1]["buckets"]["cache"] == \
        root.end - root.children[-1].start
    # The orphan hangs off the root and counts; op 3 never ended.
    assert [span.name for span in trees[2].children] == ["orphan"]
    assert folded[2]["buckets"]["barrier"] > 0.19
    assert 3 in trees and 3 not in folded
    assert tracer.open_span_count() == 1
