"""MetricsHub aggregation, the gauge sampler, and export stability."""

import json

import pytest

from repro.obs.hub import NULL_HUB, MetricsHub
from repro.obs.sampler import GaugeSampler

from tests.obs.conftest import make_observed_world


def _drive(world):
    def workload(client, tag):
        yield from client.mkdir(f"/app/{tag}")
        for j in range(4):
            path = f"/app/{tag}/f{j}"
            yield from client.create(path)
            yield from client.write(path, 0, size=256)
            yield from client.getattr(path)

    for i, client in enumerate(world.clients):
        world.run(workload(client, f"d{i}"))
    world.quiesce()
    world.hub.stop_samplers()
    return world


class TestExport:
    def test_document_shape(self):
        world = _drive(make_observed_world())
        doc = world.hub.export()
        assert doc["schema"] == "pacon.metrics/v4"
        assert doc["enabled"] is True
        hists = doc["histograms"]
        for op in ("mkdir", "create", "write", "getattr"):
            assert hists[f"client.op.{op}.latency"]["count"] > 0
        assert hists["commit.latency"]["count"] > 0
        assert doc["counters"]["commit.committed"] > 0
        assert doc["clients"]["count"] == len(world.clients)
        assert doc["clients"]["ops"] > 0
        (region_snap,) = doc["regions"].values()
        assert region_snap["workspace"] == "/app"
        assert region_snap["commit"]["committed"] > 0
        assert region_snap["cache"]["items"] > 0
        assert doc["trace"]["events"] > 0

    def test_queue_depth_series_sampled(self):
        world = _drive(make_observed_world())
        series = world.hub.export()["series"]
        depth_names = [n for n in series if n.startswith("queue.depth[")]
        assert len(depth_names) == len(world.nodes)
        backlog = series[f"queue.backlog[{world.region.name}]"]
        assert len(backlog["t"]) > 1

    def test_sampled_series_times_monotonic(self):
        world = _drive(make_observed_world())
        for name, series in world.hub.export()["series"].items():
            times = series["t"]
            assert times == sorted(times), name
            # One point per tick per gauge: strictly increasing.
            assert all(b > a for a, b in zip(times, times[1:])), name

    def test_barrier_ops_feed_barrier_wait_histogram(self):
        world = make_observed_world()

        def work(client):
            yield from client.mkdir("/app/d")
            for j in range(3):
                yield from client.create(f"/app/d/f{j}")
            yield from client.readdir("/app/d")  # barrier commit
            yield from client.rmdir("/app/d")    # barrier commit

        world.run(work(world.client))
        world.quiesce()
        world.hub.stop_samplers()
        doc = world.hub.export()
        assert doc["histograms"]["commit.barrier_wait"]["count"] > 0
        assert doc["counters"]["commit.barriers_passed"] > 0

    def test_same_seed_exports_byte_identical(self):
        a = _drive(make_observed_world(seed=23)).hub
        b = _drive(make_observed_world(seed=23)).hub
        assert a.to_json() == b.to_json()
        assert (a.tracer.render(limit=100_000)
                == b.tracer.render(limit=100_000))

    def test_to_json_is_sorted_and_parseable(self):
        world = _drive(make_observed_world())
        text = world.hub.to_json(indent=2)
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, indent=2) == text


class TestSampler:
    def test_rejects_non_positive_interval(self):
        world = make_observed_world(with_hub=False)
        hub = MetricsHub()
        with pytest.raises(ValueError):
            GaugeSampler(hub, world.region, 0.0)
        with pytest.raises(ValueError):
            GaugeSampler(hub, world.region, -1.0)

    def test_stop_interrupts_the_loop(self):
        world = make_observed_world()
        (sampler,) = world.hub.samplers

        def wait(dt):
            yield dt

        world.run(world.client.mkdir("/app/d"))
        assert sampler.samples > 0
        world.hub.stop_samplers()
        # Let the interrupt propagate one sim step.
        world.run(wait(sampler.interval))
        assert not sampler._process.is_alive
        before = sampler.samples
        world.run(wait(10 * sampler.interval))
        assert sampler.samples == before

    def test_sampler_exits_when_queues_close(self):
        world = make_observed_world()
        world.run(world.client.mkdir("/app/d"))
        world.quiesce()
        # No stop_samplers() here: closing the queues must be enough.
        world.region.close()
        world.env.run()  # must drain: the sampler must not loop forever
        for sampler in world.hub.samplers:
            assert not sampler._process.is_alive


class TestNullHub:
    def test_null_hub_is_disabled_and_read_only(self):
        assert NULL_HUB.enabled is False
        world = make_observed_world(with_hub=False)
        with pytest.raises(RuntimeError):
            NULL_HUB.attach_region(world.region)
        # Recording into it is a silent no-op.
        NULL_HUB.observe_op("mkdir", 1.0)
        NULL_HUB.count("x")
        assert NULL_HUB.stats.counters() == {}

    def test_regions_start_on_null_hub(self):
        world = make_observed_world(with_hub=False)
        assert world.region.hub is NULL_HUB
        assert not world.region.tracer.enabled
