"""Tests for the elastic membership controller (repro.core.autoscale).

Covers the control-loop contract: hysteresis (consecutive-tick streaks),
cooldown spacing, min/max pool bounds, the burn-rate SLO trigger, and
composition with chaos faults (scale-up racing a node crash).
"""

import pytest

from repro.core.autoscale import AutoscalePolicy, Autoscaler
from repro.core.config import PaconConfig
from repro.core.failure import fail_node, recover_node
from tests.core.conftest import make_world


def _elastic_config(**overrides) -> PaconConfig:
    knobs = dict(
        min_nodes=2,
        max_nodes=4,
        interval=0.5e-3,
        cooldown=1e-3,
        backlog_high=4.0,
        backlog_low=1.0,
        up_consecutive=2,
        down_consecutive=3,
    )
    knobs.update(overrides)
    return PaconConfig(workspace="/app", autoscale=AutoscalePolicy(**knobs))


def _storm(world, items: int = 300):
    """A commit-queue storm: creates issued faster than commits drain."""
    def gen():
        for i in range(items):
            yield from world.client.create(f"/app/s{i:03d}")
    return world.cluster.env.process(gen(), label="storm")


class TestScalingLoop:
    def test_backlog_storm_grows_then_idle_shrinks(self):
        w = make_world(n_nodes=2, config=_elastic_config())
        env = w.cluster.env
        scaler = Autoscaler(w.deployment, w.region)
        scaler.start()
        _storm(w)
        env.run(until=0.2)
        assert scaler.scale_ups >= 1
        assert max(n for _, n in w.region.membership_log) > 2
        # Once the storm drains, the idle pool shrinks back to the floor.
        env.run(until=0.6)
        assert scaler.scale_downs >= 1
        assert len(w.region.nodes) == 2
        # Retirements only ever touch controller-added nodes.
        assert w.region.nodes == w.nodes
        # Cooldown: successful actions are spaced at least a cooldown
        # apart.
        times = [a.time for a in scaler.actions if a.ok]
        cooldown = w.region.config.autoscale.cooldown
        assert all(b - a >= cooldown for a, b in zip(times, times[1:]))
        scaler.stop()

    def test_hysteresis_streak_gates_growth(self):
        """The same storm must NOT trigger growth when the up-streak
        requirement is unreachable — one hot tick is not a trend."""
        w = make_world(n_nodes=2,
                       config=_elastic_config(up_consecutive=10**6))
        env = w.cluster.env
        scaler = Autoscaler(w.deployment, w.region)
        scaler.start()
        _storm(w)
        env.run(until=0.2)
        assert scaler.scale_ups == 0
        assert len(w.region.nodes) == 2
        scaler.stop()

    def test_max_bound_rejects_growth(self):
        """A region already at its ceiling records overload as a
        rejected grow instead of provisioning past the bound."""
        w = make_world(n_nodes=2,
                       config=_elastic_config(max_nodes=2))
        env = w.cluster.env
        scaler = Autoscaler(w.deployment, w.region)
        scaler.start()
        _storm(w)
        env.run(until=0.2)
        assert scaler.scale_ups == 0
        assert len(w.region.nodes) == 2
        assert scaler.rejected >= 1, "sustained overload at max must be" \
                                     " recorded as a rejected grow"
        scaler.stop()

    def test_min_bound_is_quietly_held(self):
        """An idle region at the floor is steady state: no retire
        attempts, no rejected-action noise."""
        w = make_world(n_nodes=2, config=_elastic_config())
        env = w.cluster.env
        scaler = Autoscaler(w.deployment, w.region)
        scaler.start()
        env.run(until=0.05)  # ~100 idle ticks
        assert scaler.scale_downs == 0
        assert scaler.rejected == 0
        assert len(w.region.nodes) == 2
        scaler.stop()


class TestChaosComposition:
    def test_scale_up_races_peer_crash(self):
        """Growth triggered while a base node is down must complete
        (the dead shard is skipped) and the region converges after
        recovery."""
        w = make_world(n_nodes=3, config=_elastic_config())
        for i in range(20):
            w.run(w.client.create(f"/app/f{i:02d}"))
        w.quiesce()
        fail_node(w.region, w.nodes[1])
        scaler = Autoscaler(w.deployment, w.region)
        w.run(scaler._act("grow", scaler.node_factory(), "util"))
        assert scaler.scale_ups == 1
        assert scaler.failed == 0
        action = scaler.actions[-1]
        assert action.ok and action.kind == "grow"
        assert len(w.region.nodes) == 4
        recover_node(w.region, w.nodes[1])
        w.quiesce()
        for i in range(20):
            inode = w.run(w.client.getattr(f"/app/f{i:02d}"))
            assert inode.is_file

    def test_scale_up_onto_dead_node_is_recorded_not_raised(self):
        """The warm-pool node itself crashing mid-provision must be
        swallowed into the action record, never raised out of the
        control loop.  The node joined the ring before the failure, so
        it is kept (a crashed member, recovery's problem) with the
        migration abandoned."""
        w = make_world(n_nodes=2, config=_elastic_config())
        doomed = w.cluster.add_node("doomed")
        doomed.fail()
        scaler = Autoscaler(w.deployment, w.region,
                            node_factory=lambda: doomed)
        w.run(scaler._act("grow", scaler.node_factory(), "util"))
        assert scaler.failed == 1
        action = scaler.actions[-1]
        assert action.error
        assert action.ok  # it joined before the crash, so it is kept
        assert action.moved == 0
        assert doomed in w.region.nodes
        # Standard crash recovery brings the member online and the
        # region converges end to end.
        recover_node(w.region, doomed)
        w.run(w.client.create("/app/after"))
        w.quiesce()
        assert w.dfs.namespace.exists("/app/after")

    def test_failed_grow_records_symmetric_metrics_and_timeline(self):
        """Failure paths must cost what success paths cost: a latency
        observation, a structured failure counter, and a ``scale.failed``
        timeline event the blame attributor can rank."""
        from repro.obs.hub import MetricsHub

        w = make_world(n_nodes=2, config=_elastic_config())
        hub = MetricsHub(sample_interval=None)
        hub.attach_region(w.region)
        doomed = w.cluster.add_node("doomed")
        doomed.fail()
        scaler = Autoscaler(w.deployment, w.region,
                            node_factory=lambda: doomed)
        w.run(scaler._act("grow", scaler.node_factory(), "util"))
        assert scaler.failed == 1
        doc = hub.export()
        assert doc["counters"]["autoscale.action_failed"] == 1
        assert doc["counters"][
            "autoscale.action_failed[grow:NodeDownError]"] == 1
        assert doc["histograms"]["autoscale.action_latency"]["count"] == 1
        (ev,) = [e for e in hub.timeline.events()
                 if e.kind == "scale.failed"]
        assert ev.source == "autoscale"
        assert "error=" in ev.detail

    @staticmethod
    def _recorded(hub):
        """The autoscale.* counters, latency-observation count and
        autoscale timeline tuples one action left behind."""
        doc = hub.export()
        counters = {k: v for k, v in doc["counters"].items()
                    if k.startswith("autoscale.")}
        latencies = doc["histograms"]["autoscale.action_latency"]["count"]
        events = [(e.kind, e.label, e.detail, e.ref)
                  for e in hub.timeline.events() if e.source == "autoscale"]
        return counters, latencies, events

    def test_failed_grow_that_joined_is_kept_and_recorded_once(self):
        """Grow racing ``NodeDownError`` after the node joined: the node
        is kept (counted as a scale-up) but the action is a failure —
        one latency observation and one ``scale.failed`` event, no
        ``scale.grow``."""
        from repro.obs.hub import MetricsHub

        w = make_world(n_nodes=2, config=_elastic_config())
        hub = MetricsHub(sample_interval=None)
        hub.attach_region(w.region)
        doomed = w.cluster.add_node("doomed")
        doomed.fail()
        scaler = Autoscaler(w.deployment, w.region)
        w.run(scaler._act("grow", doomed, "util"))
        assert self._recorded(hub) == (
            {"autoscale.action_failed": 1,
             "autoscale.action_failed[grow:NodeDownError]": 1,
             "autoscale.scale_up": 1},
            1,
            [("scale.failed", "doomed",
              "grow reason=util error=source node doomed is down", -1)])
        action = scaler.actions[-1]
        assert (action.ok, action.moved) == (True, 0)
        assert (scaler.scale_ups, scaler.failed) == (1, 1)
        assert scaler._added == [doomed]

    def test_failed_grow_that_never_joined_is_dropped(self):
        """Grow racing ``NodeDownError`` before the node joined: nothing
        is added, nothing counts as a scale-up."""
        from repro.obs.hub import MetricsHub
        from repro.sim.network import NodeDownError

        w = make_world(n_nodes=2, config=_elastic_config())
        hub = MetricsHub(sample_interval=None)
        hub.attach_region(w.region)
        ghost = w.cluster.add_node("ghost")

        def never_joins(region, node):
            yield 1e-4
            raise NodeDownError("ghost went away before joining")

        w.deployment.grow_region_async = never_joins
        scaler = Autoscaler(w.deployment, w.region)
        w.run(scaler._act("grow", ghost, "backlog"))
        assert self._recorded(hub) == (
            {"autoscale.action_failed": 1,
             "autoscale.action_failed[grow:NodeDownError]": 1},
            1,
            [("scale.failed", "ghost", "grow reason=backlog"
              " error=ghost went away before joining", -1)])
        action = scaler.actions[-1]
        assert (action.ok, action.latency) == (False, pytest.approx(1e-4))
        assert (scaler.scale_ups, scaler.failed) == (0, 1)
        assert scaler._added == [] and ghost not in w.region.nodes

    def test_failed_retire_is_recorded_not_raised(self):
        """Retire raising ``RuntimeError`` (the node still hosts a client)
        is swallowed into the action record like a failed grow."""
        from repro.obs.hub import MetricsHub

        w = make_world(n_nodes=2, config=_elastic_config())
        hub = MetricsHub(sample_interval=None)
        hub.attach_region(w.region)
        w.new_client(1)
        scaler = Autoscaler(w.deployment, w.region)
        w.run(scaler._act("retire", w.nodes[1], "idle"))
        assert self._recorded(hub) == (
            {"autoscale.action_failed": 1,
             "autoscale.action_failed[retire:RuntimeError]": 1},
            1,
            [("scale.failed", "client1", "retire reason=idle error=node"
              " client1 still hosts clients; move them first", -1)])
        assert not scaler.actions[-1].ok
        assert (scaler.scale_downs, scaler.failed) == (0, 1)
        assert w.nodes[1] in w.region.nodes

    def test_grow_retire_reject_land_on_the_timeline(self):
        from repro.obs.hub import MetricsHub

        w = make_world(n_nodes=2, config=_elastic_config())
        hub = MetricsHub(sample_interval=None)
        hub.attach_region(w.region)
        scaler = Autoscaler(w.deployment, w.region)
        w.run(scaler._act("grow", scaler.node_factory(), "util"))
        added = scaler._added[-1]
        w.run(scaler._act("retire", added, "idle"))
        scaler._reject("grow", "max_nodes=4 reached")
        scale_events = [ev for ev in hub.timeline.events()
                        if ev.source == "autoscale"]
        kinds = [ev.kind for ev in scale_events]
        assert kinds == ["scale.grow", "scale.retire", "scale.rejected"]
        # Membership churn from the same actions lands on its own track.
        member_kinds = [ev.kind for ev in hub.timeline.events()
                        if ev.source == "membership"]
        assert member_kinds == ["node.joined", "node.departed"]
        grow, retire, rejected = scale_events
        assert grow.duration > 0.0 and retire.duration > 0.0
        assert "max_nodes" in rejected.detail
        doc = hub.export()
        assert doc["histograms"]["autoscale.action_latency"]["count"] == 2

    def test_retire_candidate_skips_dead_and_base_nodes(self):
        w = make_world(n_nodes=2, config=_elastic_config())
        scaler = Autoscaler(w.deployment, w.region)
        # Nothing added yet: base nodes are never candidates.
        assert scaler._retire_candidate() is None
        w.run(scaler._act("grow", scaler.node_factory(), "util"))
        added = scaler._added[-1]
        assert scaler._retire_candidate() is added
        added.fail()
        assert scaler._retire_candidate() is None
