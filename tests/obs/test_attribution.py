"""Causal span trees and latency attribution (the tentpole contract).

The acceptance properties:

* every op's span tree is rooted at the client op with causally-linked
  children (cache/network/commit-queue/barrier stages),
* per-op bucket sums never exceed the op's span duration, and
  ``duration == sum(buckets) + residual`` exactly — the residual is
  reported, never hidden,
* the per-class rollup reconstructs each class's mean end-to-end latency
  from its bucket means within 1%  (exact, in fact),
* on the seeded fig. 7 smoke run the same holds for every op class,
* with observability off, no SpanContext objects are allocated anywhere
  on the hot path, and no ``tracer.emit`` call is even reached (every
  site checks ``enabled`` before building the strings it would hand over).
"""

import pytest

import repro.sim.trace as trace_mod
from repro.obs.hub import attribution_rollup
from repro.sim.trace import ATTRIBUTION_BUCKETS

from tests.obs.conftest import make_observed_world

#: Categories a client op's tree may contain besides the buckets: the
#: async commit-queue residency span and the base-Service (DFS-internal)
#: spans, none of which are critical-path buckets.
NON_BUCKET_CATEGORIES = {"op", "commit_queue", "svc_queue", "svc_service"}


def _workload(client, tag):
    yield from client.mkdir(f"/app/{tag}")
    for j in range(4):
        path = f"/app/{tag}/f{j}"
        yield from client.create(path)
        yield from client.getattr(path)
    yield from client.readdir(f"/app/{tag}")


def _drive(world):
    for i, client in enumerate(world.clients):
        world.run(_workload(client, f"d{i}"), label=f"w{i}")
    world.quiesce()
    world.hub.stop_samplers()
    return world


@pytest.fixture(scope="module")
def driven():
    return _drive(make_observed_world(n_nodes=2, clients_per_node=2))


class TestSpanTrees:
    def test_every_op_rooted_with_children(self, driven):
        tracer = driven.hub.tracer
        trees = tracer.span_trees()
        assert trees, "no span trees assembled"
        categories = set()
        for op_id, root in trees.items():
            assert root.category == "op"
            assert root.op_id == op_id
            assert root.end is not None
            for span in root.walk():
                categories.add(span.category)
                assert span.op_id == op_id
                if span is not root:
                    assert span.start >= root.start
        # The workload exercises cache KV calls, network transfers, and
        # the async commit queue as child stages.
        assert {"cache", "network", "commit_queue"} <= categories
        assert categories <= set(ATTRIBUTION_BUCKETS) | NON_BUCKET_CATEGORIES

    def test_readdir_tree_contains_barrier_span(self, driven):
        tracer = driven.hub.tracer
        barrier_ops = set()
        for op_id, root in tracer.span_trees().items():
            if root.name.split(" ", 1)[0] != "readdir":
                continue
            cats = {span.category for span in root.walk()}
            if "barrier" in cats:
                barrier_ops.add(op_id)
        assert barrier_ops, "no readdir op carried a barrier span"

    def test_single_op_tree_matches_batch(self, driven):
        """One op's tree holds every span the batch parse of the log
        found for it, each once."""
        tracer = driven.hub.tracer
        trees = tracer.span_trees()
        rows = tracer.op_rows()
        op_id = sorted(trees)[0]
        ids = [s.span_id for s in trees[op_id].walk()]
        assert sorted(ids) == sorted(rows[op_id].starts)


class TestAttribution:
    def test_bucket_sums_bounded_by_duration(self, driven):
        """Property: for every completed op, sum(buckets) <= duration."""
        attributions = driven.hub.tracer.attributions()
        assert attributions
        for att in attributions.values():
            total = sum(att["buckets"].values())
            assert total <= att["duration"] + 1e-12, att
            assert att["residual"] >= -1e-12, att
            assert (total + att["residual"]
                    == pytest.approx(att["duration"], abs=1e-12))

    def test_rollup_reconstructs_mean_within_one_percent(self, driven):
        rollup = attribution_rollup(driven.hub.tracer.attributions())
        assert rollup["buckets"] == list(ATTRIBUTION_BUCKETS)
        assert rollup["ops"]
        for op_class, entry in rollup["ops"].items():
            reconstructed = (sum(entry["buckets"].values())
                             + entry["residual"])
            assert reconstructed == pytest.approx(
                entry["mean_latency"], rel=0.01), op_class

    def test_readdir_attribution_includes_barrier_wait(self, driven):
        rollup = attribution_rollup(driven.hub.tracer.attributions())
        assert "readdir" in rollup["ops"]
        assert rollup["ops"]["readdir"]["buckets"]["barrier"] > 0.0


class TestFig07Acceptance:
    def test_fig07_smoke_decomposition(self):
        """Seeded fig. 7 smoke run: every op class's mean latency is
        decomposed into buckets + residual summing to within 1%."""
        from repro.bench import fig07
        from repro.obs.hub import MetricsHub
        from repro.sim.trace import Tracer

        hub = MetricsHub(tracer=Tracer(), sample_interval=200e-6)
        fig07.run("smoke", hub=hub)
        rollup = attribution_rollup(hub.tracer.attributions())
        assert rollup["total_ops"] > 0
        assert hub.tracer.open_span_count() == 0
        for op_class, entry in rollup["ops"].items():
            reconstructed = (sum(entry["buckets"].values())
                             + entry["residual"])
            assert reconstructed == pytest.approx(
                entry["mean_latency"], rel=0.01), op_class


class TestZeroAllocationWhenOff:
    def test_no_span_context_allocated_on_hot_path(self, monkeypatch):
        """With NULL_TRACER/NULL_HUB installed, running a full workload
        (client ops, commits, barriers) must construct zero SpanContext
        objects — the guard is ``tracer.enabled``, checked before every
        context creation.

        SpanContext is only ever constructed inside Tracer methods, which
        resolve the name through the trace module's globals — so swapping
        the module-level name for an exploding stand-in catches every
        construction path (patching ``__new__`` on the class would work
        too, but CPython cannot cleanly restore ``tp_new`` afterwards).
        """
        world = make_observed_world(with_hub=False)

        class Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "SpanContext allocated with tracing off")

        monkeypatch.setattr(trace_mod, "SpanContext", Boom)
        world.run(_workload(world.client, "d0"))
        world.quiesce()


class TestNoEmitWhenOff:
    """``NULL_TRACER.emit`` raising proves no call site reaches it: the
    commit loop (barrier, commit, coalesce, discard), the autoscaler
    (grow, retire, reject) and the chaos engine all guard on
    ``tracer.enabled`` before formatting an actor or a detail string."""

    @pytest.fixture(autouse=True)
    def exploding_emit(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("tracer.emit reached with tracing off")

        monkeypatch.setattr(trace_mod.NULL_TRACER, "emit", boom)

    def test_commit_pipeline(self):
        world = make_observed_world(with_hub=False)
        assert world.region.tracer is trace_mod.NULL_TRACER
        world.run(_workload(world.client, "d0"))
        world.quiesce()
        procs = world.region.commit_processes
        assert sum(cp.committed for cp in procs) > 0
        assert sum(cp.barriers_passed for cp in procs) > 0
        # Coalesce and discard need ops that are still queued when their
        # fate is decided: publish with the commit loops paused.
        paused = make_observed_world(with_hub=False, start_commit=False)
        client = paused.client
        paused.run(client.create("/app/tmp"))
        paused.run(client.rm("/app/tmp"))
        paused.run(client.mkdir("/app/gone"))
        paused.run(client.create("/app/gone/f"))
        # Zero-cost poke: the subtree is removed *after* both were queued.
        paused.region.note_removed_subtree("/app/gone")
        paused.deployment.start_commit_processes(paused.region)
        paused.quiesce()
        procs = paused.region.commit_processes
        assert sum(cp.coalesced for cp in procs) == 2
        assert sum(cp.discarded for cp in procs) == 2

    def test_autoscaler(self):
        from repro.core.autoscale import Autoscaler
        from tests.core.conftest import make_world
        from tests.core.test_autoscale import _elastic_config, _storm

        world = make_world(n_nodes=2, config=_elastic_config())
        scaler = Autoscaler(world.deployment, world.region,
                            world.cluster.add_node)
        scaler.start()
        _storm(world)
        world.cluster.env.run(until=0.6)
        scaler.stop()
        assert scaler.scale_ups >= 1 and scaler.scale_downs >= 1
        capped = make_world(n_nodes=2, config=_elastic_config(max_nodes=2))
        scaler = Autoscaler(capped.deployment, capped.region,
                            capped.cluster.add_node)
        scaler.start()
        _storm(capped)
        capped.cluster.env.run(until=0.2)
        scaler.stop()
        assert scaler.rejected >= 1

    def test_chaos_engine(self):
        from repro.chaos.engine import ChaosEngine, ChaosSchedule

        world = make_observed_world(with_hub=False)
        schedule = ChaosSchedule().add("mds_crash", at=1e-3, duration=2e-3)
        engine = ChaosEngine(world.deployment, world.region, schedule)
        engine.start()
        world.run(engine.wait_done(), label="chaos-wait")
        assert len(engine.records) == 1
