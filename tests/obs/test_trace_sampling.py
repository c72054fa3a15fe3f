"""Whole-tree head sampling of the span log (``repro.sim.trace.SAMPLED_OPS``).

Past the budget the tracer keeps whole span trees for the ops whose id is
a multiple of a doubling stride.  These tests shrink the budget to 8 so a
~120-op observed run crosses it four times, then check the kept trees
against a same-seed run traced whole: every kept tree and its attribution
is exactly what the full run recorded, nothing of a dropped op survives,
and the simulation itself does not notice the tracer thinning.
"""

import pytest

from repro.obs.profile import render_report
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer
from tests.obs.conftest import make_observed_world

#: Files each client creates (and stats) under its own directory; every
#: third is removed again.  4 clients x (1 + 2 * 12 + 4) = 116 ops.
FILES = 12
OPS = 4 * (1 + 2 * FILES + 4)


def _work(client, tag):
    yield from client.mkdir(f"/app/{tag}")
    for j in range(FILES):
        yield from client.create(f"/app/{tag}/f{j}")
        yield from client.getattr(f"/app/{tag}/f{j}")
    for j in range(0, FILES, 3):
        yield from client.rm(f"/app/{tag}/f{j}")


def _drive(world):
    """The four clients run concurrently, so the sample thins while ops
    of every client are in flight."""
    env = world.env

    def main():
        procs = [env.process(_work(client, f"d{i}"), label=f"work{i}")
                 for i, client in enumerate(world.clients)]
        for proc in procs:
            yield proc

    world.run(main())
    world.quiesce()
    world.hub.stop_samplers()
    return world


def _run(monkeypatch, budget):
    monkeypatch.setattr(trace_mod, "SAMPLED_OPS", budget)
    return _drive(make_observed_world(n_nodes=2, clients_per_node=2))


def _by_op(tracer):
    """op_id -> the op's events, span ids aside."""
    out = {}
    for ev in tracer.events():
        if ev.op_id is not None:
            out.setdefault(ev.op_id, []).append(ev[:5])
    return out


@pytest.fixture
def pair(monkeypatch):
    """(sampled run with budget 8, same-seed run traced whole)."""
    sampled = _run(monkeypatch, 8)
    full = _run(monkeypatch, 10 * OPS)
    return sampled, full


def test_the_sample_is_every_stride_th_op(pair):
    sampled, full = pair
    assert sorted(full.hub.tracer.spans()) == list(range(1, OPS + 1))
    # The stride doubled at the 16th, 32nd and 64th op.
    kept = sorted(sampled.hub.tracer.spans())
    assert kept == list(range(8, OPS + 1, 8)) and 8 <= len(kept) <= 15
    assert sampled.hub.tracer.sampling_note() == \
        f"... traced 1 in 8 ops ({len(kept)} of {OPS})"


def test_kept_trees_equal_the_full_run(pair):
    sampled, full = pair
    kept, whole = _by_op(sampled.hub.tracer), _by_op(full.hub.tracer)
    assert kept and all(kept[op_id] == whole[op_id] for op_id in kept)
    assert any(ev[2] == "commit" for evs in kept.values() for ev in evs)
    attributions = sampled.hub.tracer.attributions()
    every = full.hub.tracer.attributions()
    assert sorted(attributions) == sorted(kept)
    assert all(att == every[op_id] for op_id, att in attributions.items())


def test_nothing_of_a_dropped_op_survives(pair):
    sampled, _ = pair
    tracer = sampled.hub.tracer
    assert all(ev.op_id % 8 == 0 for ev in tracer.events()
               if ev.op_id is not None)
    assert tracer.open_span_count() == 0
    # Every stage closed too (``starts`` also holds the root).
    assert all(len(op.ends) == len(op.starts) - 1
               for op in tracer.op_rows().values())


def test_the_simulation_does_not_notice(pair):
    sampled, full = pair
    assert sampled.env.now == full.env.now
    assert sampled.env.processed_events == full.env.processed_events

    def namespace(world):
        return {path: inode.to_record()
                for path, inode in world.dfs.namespace.walk("/app")}

    assert namespace(sampled) == namespace(full)
    # The hub still observes every op.
    doc, whole = sampled.hub.export(), full.hub.export()
    assert doc["counters"] == whole["counters"]
    assert doc["counters"]["client.ops"] == OPS
    assert doc["histograms"] == whole["histograms"]
    assert doc["attribution"]["total_ops"] == len(
        sampled.hub.tracer.spans())


class TestThinning:
    def test_an_op_thinned_in_flight_records_nothing_more(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "SAMPLED_OPS", 2)
        tracer = Tracer()
        proc = object()
        first = tracer.root_context()
        tracer.push_context(proc, first)
        tracer.emit(0.0, "c", "op.start", "mkdir /a", first.op_id,
                    span_id=first.span_id)
        child = tracer.open_child(proc, 1.0, "c", "cache", "get")
        assert [tracer.root_context().op_id for _ in range(3)] == [2, 3, 4]
        # The fourth traced op doubled the stride: op 1 is out, in flight.
        assert not tracer.sampled(first.op_id)
        assert tracer.open_child(proc, 2.0, "c", "network") is None
        tracer.span_end(3.0, "c", child)
        tracer.emit(4.0, "c", "op.end", "", first.op_id,
                    span_id=first.span_id)
        tracer.emit(5.0, "commit:n0", "commit", "mkdir /a", first.op_id)
        assert len(tracer) == 0 and tracer.spans() == {}

    def test_a_queued_op_thinned_before_its_commit(self, monkeypatch):
        """Creates queue while the commit processes are stopped; the
        sample thins before any of them commits."""
        monkeypatch.setattr(trace_mod, "SAMPLED_OPS", 2)
        world = make_observed_world(n_nodes=1, start_commit=False)
        for j in range(10):
            world.run(world.client.create(f"/app/f{j}"))
        world.deployment.start_commit_processes(world.region)
        world.quiesce()
        tracer = world.hub.tracer
        commits = [ev.op_id for ev in tracer.events(kind="commit")]
        assert commits == [4, 8]
        assert sorted(tracer.spans()) == [4, 8]
        assert {ev.op_id for ev in tracer.events(kind="span.end")} == {4, 8}
        assert world.region.ops_committed == 10


class TestReporting:
    def test_the_sampling_line_only_past_the_budget(self, pair):
        sampled, full = pair
        for world in (sampled, full):
            tracer = world.hub.tracer
            note = tracer.sampling_note()
            assert (note != "") == (world is sampled)
            report = render_report(tracer, world.hub.export())
            render = tracer.render(limit=5)
            assert ("traced 1 in" in report) == (world is sampled)
            assert ("traced 1 in" in render) == (world is sampled)
            if note:
                assert report.endswith("\n" + note)
                assert note in render.splitlines()
