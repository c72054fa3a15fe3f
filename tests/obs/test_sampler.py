"""GaugeSampler lifecycle: clean shutdown and deterministic series."""

from repro.obs.hub import MetricsHub
from repro.obs.sampler import GaugeSampler
from repro.sim.core import Environment

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
    return world


def _series_lengths(hub):
    return {name: len(points["t"])
            for name, points in hub.stats.series_export().items()}


def _advance(world, dt):
    def waiter():
        yield world.env.timeout(dt)
    world.run(waiter(), label="advance")


class TestShutdown:
    def test_series_stop_growing_after_queues_close(self):
        world = _drive(make_observed_world())
        world.quiesce()
        world.region.close()  # closes the queues; the sampler loop exits
        _advance(world, 2 * world.hub.sample_interval)  # loop's last check
        lengths = _series_lengths(world.hub)
        assert lengths, "sampler recorded nothing"
        _advance(world, 50 * world.hub.sample_interval)
        assert _series_lengths(world.hub) == lengths

    def test_series_stop_growing_after_stop_samplers(self):
        world = _drive(make_observed_world())
        # Queues still open: stop() alone must halt sampling.
        world.hub.stop_samplers()
        _advance(world, 2 * world.hub.sample_interval)  # loop takes a step
        lengths = _series_lengths(world.hub)
        _advance(world, 50 * world.hub.sample_interval)
        assert _series_lengths(world.hub) == lengths
        world.quiesce()

    def test_resource_util_series_recorded_and_bounded(self):
        world = _drive(make_observed_world())
        world.quiesce()
        world.hub.stop_samplers()
        series = world.hub.stats.series_export()
        util = {name: points for name, points in series.items()
                if name.startswith("resource.util[")}
        assert util, "no resource utilization series recorded"
        assert any(max(points["v"], default=0.0) > 0.0
                   for points in util.values())
        for name, points in util.items():
            for v in points["v"]:
                assert 0.0 <= v <= 1.0 + 1e-9, (name, v)

    def test_exported_series_identical_across_same_seed_runs(self):
        exports = []
        for _ in range(2):
            world = _drive(make_observed_world(seed=21))
            world.quiesce()
            world.hub.stop_samplers()
            exports.append(world.hub.stats.series_export())
        assert exports[0] == exports[1]


class TestFlightRecorderGauges:
    """The incident detector's input gauges: stall age and error rate."""

    def test_clean_run_records_zero_error_rate(self):
        world = _drive(make_observed_world())
        world.quiesce()
        world.hub.stop_samplers()
        series = world.hub.stats.series_export()
        assert "commit.stall_age[/app]" in series
        errors = series["client.error_rate[/app]"]["v"]
        assert errors and all(v == 0.0 for v in errors)
        assert all(v >= 0.0
                   for v in series["commit.stall_age[/app]"]["v"])

    def test_error_rate_is_per_tick_delta(self):
        world = make_observed_world(sample_interval=None)
        sampler = GaugeSampler(world.hub, world.region, interval=1e-4)
        sampler.sample_once()
        for _ in range(3):
            world.hub.observe_op("getattr", 1e-6, ok=False)
        sampler.sample_once()
        sampler.sample_once()  # no new errors: delta back to zero
        rates = world.hub.stats.series_export()["client.error_rate[/app]"]["v"]
        assert rates == [0.0, 3.0, 0.0]

    def test_stall_age_grows_without_commit_progress_then_resets(self):
        world = make_observed_world(sample_interval=None,
                                    start_commit=False)
        for i in range(3):
            world.run(world.client.create(f"/app/f{i}"))
        sampler = GaugeSampler(world.hub, world.region, interval=1e-4)
        sampler.sample_once()
        _advance(world, 5e-4)
        sampler.sample_once()
        stalls = world.hub.stats.series_export()["commit.stall_age[/app]"]["v"]
        assert stalls[-1] > stalls[0] >= 0.0
        # Draining the pipeline is progress: the gauge snaps back to 0.
        world.deployment.start_commit_processes(world.region)
        world.quiesce()
        sampler.sample_once()
        stalls = world.hub.stats.series_export()["commit.stall_age[/app]"]["v"]
        assert stalls[-1] == 0.0


class _QueuelessRegion:
    """Minimal region stand-in: a cache-only region with no commit queues."""

    class _Queues:
        @staticmethod
        def queues():
            return ()

        @staticmethod
        def total_backlog():
            return 0

    class _Cache:
        @staticmethod
        def used_bytes():
            return 128

        @staticmethod
        def hit_rate():
            return 0.5

    def __init__(self, env):
        self.env = env
        self.name = "cacheonly"
        self.queues = self._Queues()
        self.cache = self._Cache()

    @staticmethod
    def oldest_outstanding_op_timestamp():
        return None


class TestZeroQueueRegion:
    """Regression: ``all(...)`` over a region with zero commit queues is
    vacuously True — the sampler used to exit after a single sample."""

    def test_sampler_keeps_running_with_no_queues(self):
        env = Environment()
        hub = MetricsHub()
        sampler = GaugeSampler(hub, _QueuelessRegion(env), interval=1.0)
        proc = sampler.start()
        env.run(until=10.5)
        assert proc.is_alive, "sampler exited on a queue-less region"
        assert sampler.samples >= 10

    def test_sampler_still_stops_on_request(self):
        env = Environment()
        hub = MetricsHub()
        sampler = GaugeSampler(hub, _QueuelessRegion(env), interval=1.0)
        proc = sampler.start()
        env.run(until=3.5)
        sampler.stop()
        env.run()
        assert not proc.is_alive
        taken = sampler.samples
        series = hub.stats.series_export()
        assert len(series["cache.used_bytes[cacheonly]"]["t"]) == taken

    def test_sampler_with_queues_still_exits_when_all_close(self):
        world = _drive(make_observed_world())
        world.quiesce()
        world.region.close()
        _advance(world, 2 * world.hub.sample_interval)
        for sampler in world.hub.samplers:
            assert not sampler._process.is_alive
