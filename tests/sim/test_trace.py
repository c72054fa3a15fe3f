"""Tests for the structured tracer and its commit-machinery integration."""

from repro.sim.trace import NULL_TRACER, TraceEvent, Tracer
from tests.core.conftest import make_world


class TestTracer:
    def test_emit_and_filter(self):
        t = Tracer()
        t.emit(1.0, "a", "op.start", "create /x", op_id=1)
        t.emit(2.0, "b", "commit", "create /x")
        t.emit(3.0, "a", "op.end", "", op_id=1)
        assert len(t) == 3
        assert len(list(t.events(actor="a"))) == 2
        assert len(list(t.events(kind="commit"))) == 1
        assert len(list(t.events(since=1.5, until=2.5))) == 1
        assert len(list(t.events(op_id=1))) == 2

    def test_spans_pairing(self):
        t = Tracer()
        a = t.new_op_id()
        b = t.new_op_id()
        t.emit(1.0, "c", "op.start", "create", op_id=a)
        t.emit(1.5, "c", "op.start", "mkdir", op_id=b)
        t.emit(2.0, "c", "op.end", op_id=a)
        spans = t.spans()
        # b never ended: reported as an open-ended entry, not dropped.
        assert spans == {a: (1.0, 2.0, "create"), b: (1.5, None, "mkdir")}

    def test_render_reports_open_spans(self):
        t = Tracer()
        a = t.new_op_id()
        t.emit(1.0, "c", "op.start", "create", op_id=a)
        assert "1 spans still open" in t.render()
        t.emit(2.0, "c", "op.end", op_id=a)
        assert "still open" not in t.render()

    def test_capacity_drops(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.emit(float(i), "x", "k")
        assert len(t) == 2
        assert t.dropped == 3

    def test_disabled_tracer_ignores(self):
        t = Tracer()
        t.enabled = False
        t.emit(1.0, "x", "k")
        assert len(t) == 0

    def test_render_clips(self):
        t = Tracer()
        for i in range(10):
            t.emit(float(i), "x", "k", f"e{i}")
        text = t.render(limit=3)
        assert "e0" in text and "e9" not in text
        assert "7 more events" in text

    def test_null_tracer_is_inert(self):
        NULL_TRACER.emit(1.0, "x", "k")
        assert len(NULL_TRACER) == 0

    def test_clear(self):
        t = Tracer()
        t.emit(1.0, "x", "k")
        t.clear()
        assert len(t) == 0

    def test_event_render(self):
        ev = TraceEvent(1e-3, "commit:n0", "commit", "create /a", op_id=7)
        text = ev.render()
        assert "commit:n0" in text and "#7" in text and "create /a" in text


class TestCommitIntegration:
    def test_commit_events_recorded(self):
        world = make_world()
        tracer = Tracer()
        world.region.tracer = tracer
        world.run(world.client.create("/app/f"))
        world.quiesce()
        commits = list(tracer.events(kind="commit"))
        assert len(commits) == 1
        assert "create /app/f" in commits[0].detail

    def test_barrier_events_recorded(self):
        world = make_world()
        tracer = Tracer()
        world.region.tracer = tracer
        world.run(world.client.readdir("/app"))
        barriers = list(tracer.events(kind="barrier"))
        assert len(barriers) == len(world.region.nodes)
        assert all("epoch 0 done" in ev.detail for ev in barriers)

    def test_traces_are_deterministic(self):
        def run_once():
            w = make_world(seed=55)
            tracer = Tracer()
            w.region.tracer = tracer
            w.run(w.client.mkdir("/app/d"))
            for i in range(5):
                w.run(w.client.create(f"/app/d/f{i}"))
            w.run(w.client.readdir("/app/d"))
            w.quiesce()
            return [ev.render() for ev in tracer.events()]

        assert run_once() == run_once()
