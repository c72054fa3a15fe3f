"""Chrome trace-event export: structure, windowing, byte determinism."""

import json

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.sim.trace import Tracer

from tests.obs.conftest import make_observed_world


def _workload(client, tag):
    yield from client.mkdir(f"/app/{tag}")
    for j in range(3):
        path = f"/app/{tag}/f{j}"
        yield from client.create(path)
        yield from client.getattr(path)


def _drive(world):
    for i, client in enumerate(world.clients):
        world.run(_workload(client, f"d{i}"), label=f"w{i}")
    world.quiesce()
    world.hub.stop_samplers()
    return world


class TestStructure:
    def test_spans_counters_metadata_present(self):
        world = _drive(make_observed_world())
        doc = chrome_trace(world.hub.tracer, world.hub.export())
        events = doc["traceEvents"]
        phases = {ev["ph"] for ev in events}
        assert {"X", "C", "M", "i"} <= phases
        ops = [ev for ev in events
               if ev["ph"] == "X" and ev["cat"] == "op"]
        assert len(ops) == len(world.hub.tracer.attributions())
        for ev in ops:
            assert ev["dur"] >= 0.0
            assert ev["ts"] >= 0.0
            assert ev["args"]["op_id"] > 0
        # Counter tracks live on the dedicated counters pid.
        counter_pids = {ev["pid"] for ev in events if ev["ph"] == "C"}
        assert counter_pids == {1}
        names = {ev["args"]["name"] for ev in events
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert "counters" in names and "client" in names

    def test_open_span_exported_as_begin_event(self):
        t = Tracer()
        ctx = t.root_context()
        t.emit(1.0, "client:x", "op.start", "create /f", op_id=ctx.op_id,
               span_id=ctx.span_id)
        doc = chrome_trace(t)
        (begin,) = [ev for ev in doc["traceEvents"] if ev["ph"] == "B"]
        assert begin["cat"] == "op"

    def test_window_filters_ops_by_root_start(self):
        world = _drive(make_observed_world())
        tracer = world.hub.tracer
        spans = sorted((s, op) for op, (s, e, d) in tracer.spans().items())
        cut = spans[len(spans) // 2][0]
        doc = chrome_trace(tracer, world.hub.export(), since=cut)
        kept = [ev for ev in doc["traceEvents"]
                if ev["ph"] == "X" and ev["cat"] == "op"]
        expected = [op for s, op in spans if s >= cut]
        assert sorted(ev["args"]["op_id"] for ev in kept) == expected
        assert len(expected) < len(spans)


class TestControlPlaneTracks:
    def test_timeline_renders_on_control_plane_process(self):
        world = _drive(make_observed_world())
        tl = world.hub.timeline
        seq = tl.record(0.001, "chaos", "fault.injected", "mds_crash[0]")
        tl.record(0.003, "chaos", "fault.recovered", "mds_crash[0]",
                  ref=seq)
        tl.record(0.002, "autoscale", "scale.grow", "grow[node2]")
        doc = chrome_trace(world.hub.tracer, world.hub.export())
        control = [ev for ev in doc["traceEvents"]
                   if ev.get("pid") == 1_000_000]
        names = {ev["args"]["name"] for ev in control if ev["ph"] == "M"}
        assert {"control-plane", "chaos", "autoscale"} <= names
        # Injection/recovery pair folds into one complete slice.
        (fault,) = [ev for ev in control
                    if ev.get("cat") == "fault.injected"]
        assert fault["ph"] == "X"
        assert fault["dur"] == (0.003 - 0.001) * 1e6
        # The recovery event itself is folded away, not double-drawn.
        assert not any(ev.get("cat") == "fault.recovered"
                       for ev in control)
        (grow,) = [ev for ev in control if ev.get("cat") == "scale.grow"]
        assert grow["ph"] == "i"

    def test_incidents_render_as_slices_with_top_suspect(self):
        world = _drive(make_observed_world())
        incidents = [{"id": "INC-001", "rule": "commit-stall",
                      "series": "commit.stall_age", "start": 0.001,
                      "end": 0.004, "peak": 2.0, "bound": 0.5,
                      "suspects": [{"rank": 1, "seq": 1,
                                    "kind": "fault.injected",
                                    "label": "mds_crash[0]", "t": 0.001,
                                    "score": 1.0, "evidence": "e"}]}]
        exported = world.hub.export()
        exported["incidents"]["incidents"] = incidents
        doc = chrome_trace(world.hub.tracer, exported)
        track = [ev for ev in doc["traceEvents"]
                 if ev.get("pid") == 1_000_001]
        (slice_,) = [ev for ev in track if ev["ph"] == "X"]
        assert slice_["name"] == "INC-001 commit-stall"
        assert slice_["args"]["top_suspect"] == "mds_crash[0]"
        assert slice_["dur"] == (0.004 - 0.001) * 1e6

    def test_disabled_hub_emits_no_control_tracks(self):
        world = _drive(make_observed_world())
        doc = chrome_trace(world.hub.tracer, doc=None)
        assert not any(ev.get("pid") in (1_000_000, 1_000_001)
                       for ev in doc["traceEvents"])


class TestDeterminism:
    def test_same_seed_runs_byte_identical(self, tmp_path):
        """Two same-seed observed runs must produce byte-identical Chrome
        trace files and byte-identical v2 metrics JSON."""
        paths = []
        jsons = []
        for run in ("a", "b"):
            world = _drive(make_observed_world(seed=13))
            path = tmp_path / f"trace_{run}.json"
            write_chrome_trace(str(path), world.hub.tracer,
                               world.hub.export())
            paths.append(path)
            jsons.append(world.hub.to_json())
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert jsons[0] == jsons[1]

    def test_write_returns_event_count(self, tmp_path):
        world = _drive(make_observed_world())
        path = tmp_path / "out.json"
        count = write_chrome_trace(str(path), world.hub.tracer,
                                   world.hub.export())
        doc = json.loads(path.read_text())
        assert count == len(doc["traceEvents"]) > 0
        assert doc["displayTimeUnit"] == "ms"
