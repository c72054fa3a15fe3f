"""What observing costs, as counts that repeat exactly.

Host seconds belong to ``benchmarks/perf``; these are the deterministic
facts behind them, on the observed run ``test_export_pins.py`` pins
(``OBSERVED``): how many Python-level calls the observer makes per
recorded trace event, that an export builds no ``Span``, that a recorder
never creates a sketch before its first observation, and that a full log
still counts every record it refuses.
"""

import os
import sys

import pytest

from repro import cli
from repro.obs.hub import MetricsHub
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer
from tests.obs.conftest import make_observed_world
from tests.obs.test_export_pins import OBSERVED

#: Python-level calls inside ``repro/obs/`` and ``sim/trace.py`` per
#: recorded trace event, recording and one export together.  The commit
#: before the records became tuples measured 8.595 (7 701 calls / 896
#: events); the ceiling is 0.64x that.  This tree measures 5.16.
CALLS_PER_EVENT_CEILING = 5.5

_OBS_DIR = os.sep + os.path.join("repro", "obs") + os.sep
_TRACE_PY = os.sep + os.path.join("repro", "sim", "trace.py")


@pytest.fixture
def observed_run(monkeypatch):
    """The pinned ``OBSERVED`` run, recording into a given tracer."""
    def run(tracer: Tracer) -> MetricsHub:
        monkeypatch.setattr(cli, "Tracer", lambda: tracer)
        args = cli.build_parser().parse_args(["profile", *OBSERVED])
        return cli._run_observed(args, with_tracer=True)
    return run


def test_observer_calls_per_trace_event(observed_run):
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            if _OBS_DIR in filename or filename.endswith(_TRACE_PY):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        hub = observed_run(Tracer())
        hub.export()
    finally:
        sys.setprofile(previous)
    assert len(hub.tracer) == 896 and hub.tracer.dropped == 0
    assert calls / len(hub.tracer) <= CALLS_PER_EVENT_CEILING


def test_export_builds_no_span(observed_run, monkeypatch):
    hub = observed_run(Tracer())

    def boom(*args, **kwargs):
        raise AssertionError("hub.export() built a Span")

    monkeypatch.setattr(trace_mod, "Span", boom)
    doc = hub.export()
    assert doc["attribution"]["total_ops"] == 72
    assert doc["trace"]["open_spans"] == 0
    with pytest.raises(AssertionError, match="built a Span"):
        hub.tracer.span_trees()


def test_no_sketch_exists_before_its_first_observation():
    world = make_observed_world(n_nodes=2, clients_per_node=2)
    hub = world.hub
    # Attaching tracked 2x(cpu, nic, workers) + the DFS servers' resources
    # and resolved every recorder name, but created nothing.
    assert hub.resource_snapshot() and hub.stats.sketches() == {}
    hub.observe_op("mkdir", 1e-6)
    assert list(hub.stats.sketches()) == ["client.op.mkdir.latency"]
    for i, client in enumerate(world.clients):
        world.run(client.mkdir(f"/app/d{i}"))
        world.run(client.getattr(f"/app/d{i}"))
    world.quiesce()
    hub.stop_samplers()
    doc = hub.export()
    queued = {name for name, res in doc["resources"].items()
              if res["total_wait_time"] > 0}
    waits = {name[len("resource.wait["):-1] for name in doc["histograms"]
             if name.startswith("resource.wait[")}
    # A resource nobody ever queued on has no wait histogram at all.
    assert waits == queued and queued < set(doc["resources"])


class TestAFullLogCountsWhatItRefuses:
    def test_each_append_site_counts_its_own_drop(self):
        tracer = Tracer(capacity=1)
        process = object()
        ctx = tracer.root_context()
        tracer.push_context(process, ctx)
        tracer.emit(0.0, "c", "op.start", "mkdir /a", ctx.op_id,
                    span_id=ctx.span_id)
        assert (len(tracer), tracer.dropped) == (1, 0)
        child = tracer.open_child(process, 1.0, "c", "cache", "get")
        assert child == (ctx.op_id, ctx.span_id + 1, ctx.span_id)
        assert (len(tracer), tracer.dropped) == (1, 1)
        tracer.span_end(2.0, "c", child)
        assert (len(tracer), tracer.dropped) == (1, 2)
        tracer.emit(3.0, "c", "op.end", "", ctx.op_id, span_id=ctx.span_id)
        assert (len(tracer), tracer.dropped) == (1, 3)

    def test_a_truncated_run_drops_exactly_the_rest(self, observed_run):
        whole = observed_run(Tracer()).tracer
        clipped = observed_run(Tracer(capacity=10)).tracer
        assert (len(clipped), clipped.dropped) == (10, len(whole) - 10)
        assert list(clipped.events()) == list(whole.events())[:10]

    def test_a_disabled_tracer_opens_children_without_recording(self):
        """``open_child`` never reaches the null-object discovery (it
        needs a pushed context), so its ``enabled`` check is pinned
        here."""
        tracer = Tracer()
        tracer.enabled = False
        process = object()
        tracer.push_context(process, tracer.root_context())
        child = tracer.open_child(process, 1.0, "c", "cache")
        tracer.span_end(2.0, "c", child)
        assert child is not None
        assert (len(tracer), tracer.dropped) == (0, 0)
