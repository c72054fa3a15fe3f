"""Chaos engine, scenarios, and convergence invariants (§III.E, §III.G).

The scenario tests run the full two-run protocol from
:mod:`repro.chaos.scenarios` — a fault-free reference pass calibrates
the schedule, then the same seeded world reruns with faults injected
mid-flight — and assert the convergence invariant the paper claims:
loss-free faults reproduce the reference namespace byte-exactly,
destructive faults produce a subset with exact loss accounting.
"""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosSchedule, Fault
from repro.chaos.invariants import (
    check_convergence,
    namespace_digest,
    namespace_entries,
)
from repro.chaos.scenarios import run_scenario
from repro.core.config import PaconConfig
from repro.core.failure import fail_node
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.sim.network import Cluster, MessageDropped, NodeDownError
from tests.core.conftest import make_paused_world, make_world


# ------------------------------------------------------------- scenarios
class TestScenarios:
    def test_mds_crash_mid_commit_replays_to_identical_namespace(self):
        result = run_scenario("mds_crash")
        assert result.ok, result.report.problems
        # The crash really hit commits in flight: recovery replayed lost
        # round trips (dedup'd by commit tokens) and dropped messages
        # at delivery — yet nothing was lost and the namespace matches
        # the fault-free run byte-exactly.
        assert result.replays > 0
        assert result.dropped > 0
        assert result.lost_ops == 0
        assert result.report.checks["reference"] == "identical"

    def test_crash_during_barrier_recovers_and_accounts_losses(self):
        result = run_scenario("barrier_crash")
        assert result.ok, result.report.problems
        # rmdir rounds kept barrier epochs in flight across the crash;
        # recovery republished the destroyed markers, so every epoch
        # still completed and the accounting identity held exactly.
        assert result.report.checks["barrier_epochs"] > 0
        assert result.report.checks["reference"].startswith("subset")

    def test_partition_heal_converges_identically(self):
        result = run_scenario("partition_heal")
        assert result.ok, result.report.problems
        assert result.dropped > 0      # the cut really severed traffic
        assert result.lost_ops == 0
        assert result.report.checks["reference"] == "identical"

    def test_cache_churn_is_loss_free(self):
        result = run_scenario("cache_churn")
        assert result.ok, result.report.problems
        assert result.lost_ops == 0
        assert result.report.checks["reference"] == "identical"
        assert result.report.checks["leaked_waiters"] == 0

    def test_node_crash_subset_with_exact_accounting(self):
        result = run_scenario("node_crash")
        assert result.ok, result.report.problems
        assert result.report.checks["reference"].startswith("subset")

    def test_same_seed_same_fault_schedule_and_outcome(self):
        a = run_scenario("node_crash", seed=0xFEED)
        b = run_scenario("node_crash", seed=0xFEED)
        assert a.schedule_signature == b.schedule_signature
        assert a.report.digest == b.report.digest
        assert a.lost_ops == b.lost_ops

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("rack_fire")


# -------------------------------------------------------------- schedule
class TestChaosSchedule:
    def test_poisson_is_deterministic_per_stream(self):
        rng_a = Cluster(seed=11).rng.stream("chaos")
        rng_b = Cluster(seed=11).rng.stream("chaos")
        sched_a = ChaosSchedule.poisson(rng_a, ("node_crash", "mds_crash"),
                                        mttf=0.3, mttr=0.05, horizon=2.0,
                                        targets=4)
        sched_b = ChaosSchedule.poisson(rng_b, ("node_crash", "mds_crash"),
                                        mttf=0.3, mttr=0.05, horizon=2.0,
                                        targets=4)
        assert len(sched_a) > 0
        assert sched_a.signature() == sched_b.signature()

    def test_different_seed_different_schedule(self):
        kw = dict(mttf=0.3, mttr=0.05, horizon=2.0, targets=4)
        sched_a = ChaosSchedule.poisson(
            Cluster(seed=11).rng.stream("chaos"), ("node_crash",), **kw)
        sched_b = ChaosSchedule.poisson(
            Cluster(seed=12).rng.stream("chaos"), ("node_crash",), **kw)
        assert sched_a.signature() != sched_b.signature()

    def test_bad_fault_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="gamma_ray", at=0.1, duration=0.1)
        with pytest.raises(ValueError):
            Fault(kind="node_crash", at=0.1, duration=0.0)


# ------------------------------------------------- engine + fault metrics
class TestChaosEngine:
    def test_engine_emits_fault_lifecycle_metrics(self, world):
        hub = MetricsHub()
        hub.attach_region(world.region)
        schedule = ChaosSchedule().add("mds_crash", at=1e-3, duration=2e-3)
        engine = ChaosEngine(world.deployment, world.region, schedule)
        engine.start()
        world.run(engine.wait_done(), label="chaos-wait")
        counters = hub.export()["counters"]
        assert counters["chaos.injected"] == 1
        assert counters["chaos.recovered"] == 1
        assert counters["chaos.fault.mds_crash"] == 1
        assert len(engine.records) == 1
        rec = engine.records[0]
        assert rec.recovered_at - rec.injected_at == pytest.approx(2e-3)


# -------------------------------------------------------------- satellites
class TestAbort:
    def test_abort_on_idle_process_loses_nothing(self, world):
        cp = world.region.commit_processes[0]
        assert cp.abort(reason="test") == []
        assert cp.killed
        assert cp.aborts == 1

    def test_abort_does_not_leak_queue_waiters(self, world):
        # Steady state: the idle commit loop is the queue's one blocked
        # getter.  Abort cancels that wait; the registration must go
        # with it, or every crash-recover cycle leaks one waiter.
        queue = world.region.queues.route(world.nodes[0].node_id)
        world.cluster.env.run(until=1e-3)
        assert queue.waiting_getters == 1
        world.region.commit_processes[0].abort(reason="test")
        world.cluster.env.run(until=2e-3)
        assert queue.waiting_getters == 0

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_abort_mid_drain_loses_the_interrupted_op_exactly_once(
            self, batch_size):
        config = PaconConfig(workspace="/app", commit_batch_size=batch_size)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        run_sync(cluster.env, client.create("/app/f"))        # node 0
        other = deployment.client(region, region.nodes[1])
        run_sync(cluster.env, other.create("/app/g"))         # node 1
        deployment.start_commit_processes(region)
        cp = next(p for p in region.commit_processes
                  if p.node is region.nodes[0])
        while not cp._drain:
            cluster.env.step()
        # Drained, but the MDS round trip has not come back: the op is
        # interrupted before its commit accounting.
        assert cp.committed == 0
        lost = cp.abort(reason="test")
        assert [op.path for op in lost] == ["/app/f"]
        assert not cp._drain and not cp._unsettled
        deployment.quiesce_sync(region)
        # The unwinding drain leaves nothing behind.
        assert not cp._drain and not cp._unsettled
        resolved = sum(p.committed + p.discarded + p.coalesced
                       for p in region.commit_processes)
        assert region.ops_submitted == resolved + len(lost) == 2

    def test_fail_node_reconciles_the_ledger_once_per_lost_op(self):
        # One op drained but unsettled (its MDS round trip is out), two
        # still queued behind it: the crash loses all three, and the
        # version-lag ledger of a hub-attached region forgets each once.
        config = PaconConfig(workspace="/app", commit_batch_size=1)
        cluster, dfs, deployment, region, client = make_paused_world(config)
        MetricsHub().attach_region(region)
        paths = ["/app/f0", "/app/f1", "/app/f2"]
        for path in paths:
            run_sync(cluster.env, client.create(path))        # node 0
        assert [region.pending_mutations(p) for p in paths] == [1, 1, 1]
        deployment.start_commit_processes(region)
        cp = next(p for p in region.commit_processes
                  if p.node is region.nodes[0])
        while not cp._drain:
            cluster.env.step()
        assert list(cp._unsettled.values()) == cp._drain
        assert len(cp._drain) == 1 and len(cp.queue) == 2
        report = fail_node(region, region.nodes[0])
        assert report.lost_queued_ops == 3
        assert [region.pending_mutations(p) for p in paths] == [0, 0, 0]
        assert region.total_pending_mutations() == 0
        deployment.quiesce_sync(region)
        assert region.ops_submitted == (region.ops_committed
                                        + report.lost_queued_ops) == 3

    def test_crash_mid_release_of_held_ops_loses_each_once(self):
        # B's creates are stamped with the epoch A's rmdir just opened and
        # drained beside its barrier markers, so node 0 holds them for the
        # next epoch and releases them one drain at a time.  A crash
        # during the first release must still find the other two.
        w = make_world(n_nodes=2, config=PaconConfig(workspace="/app",
                                                     commit_batch_size=16))
        env, region = w.cluster.env, w.region
        a, b = w.client, w.new_client(0)
        w.run(a.mkdir("/app/d"))
        w.quiesce()

        def burst():
            for i in range(6):
                yield from a.create(f"/app/x{i}")
            env.process(a.rmdir("/app/d"), label="rmdir")
            yield 1e-6
            for i in range(3):
                yield from b.create(f"/app/f{i}")

        env.process(burst(), label="burst")
        cp = region.commit_processes[0]
        while not (cp.current_epoch == 1 and cp._drain
                   and cp._drain[0].path == "/app/f0"):
            env.step()
        assert [op.path for op in cp._future[1]] == ["/app/f1", "/app/f2"]
        report = fail_node(region, w.nodes[0])
        assert report.lost_queued_ops == 3
        resolved = sum(p.committed + p.discarded + p.coalesced
                       for p in region.commit_processes)
        assert region.ops_submitted == resolved + report.lost_queued_ops

    def test_fail_node_counts_queued_ops_exactly(self, world):
        client = world.client
        world.run(client.mkdir("/app/d"))
        world.quiesce()
        for i in range(5):
            world.run(client.create(f"/app/d/f{i}"))
        # Ops are published but the commit pipeline hasn't drained yet.
        report = fail_node(world.region, world.nodes[0])
        assert report.lost_queued_ops == 5
        submitted = world.region.ops_submitted
        committed = world.region.ops_committed
        assert submitted == committed + report.lost_queued_ops


class TestCheckpointClamp:
    def test_empty_workspace_checkpoint_round_trip(self, world):
        # A fresh workspace holds only its root dir; the entry count
        # (which excludes the root) must clamp to 0, not go negative,
        # and the checkpoint must restore cleanly.
        ckpt = world.deployment.checkpointer(world.region)
        cp = world.run(ckpt.checkpoint())
        assert cp.entries == 0
        world.run(world.client.create("/app/f"))
        world.quiesce()
        restored = world.run(ckpt.restore())
        assert restored == 0
        assert not world.dfs.namespace.exists("/app/f")


class TestDeliveryTimeDrops:
    def test_transfer_to_node_that_dies_mid_flight_is_dropped(self):
        cluster = Cluster(seed=3)
        hub = MetricsHub()
        cluster.network.hub = hub
        src = cluster.add_node("src")
        dst = cluster.add_node("dst")

        def scenario():
            def killer():
                yield cluster.env.timeout(1e-9)
                dst.fail()
            cluster.env.process(killer(), label="killer")
            with pytest.raises(MessageDropped):
                yield from cluster.network.transfer(src, dst, 1 << 20)

        run_sync(cluster.env, scenario(), label="drop-test")
        assert cluster.network.dropped == 1
        assert hub.export()["counters"]["net.dropped"] == 1

    def test_dead_source_fails_fast_without_drop(self):
        cluster = Cluster(seed=3)
        src = cluster.add_node("src")
        dst = cluster.add_node("dst")
        src.fail()

        def scenario():
            with pytest.raises(NodeDownError):
                yield from cluster.network.transfer(src, dst, 1024)

        run_sync(cluster.env, scenario(), label="src-down")
        assert cluster.network.dropped == 0

    def test_restarted_incarnation_drops_stale_delivery(self):
        # A message sent to incarnation N must not be delivered to
        # incarnation N+1 (the restarted node never saw the request).
        cluster = Cluster(seed=3)
        src = cluster.add_node("src")
        dst = cluster.add_node("dst")

        def scenario():
            def bouncer():
                yield cluster.env.timeout(1e-9)
                dst.fail()
                dst.recover()
            cluster.env.process(bouncer(), label="bouncer")
            with pytest.raises(MessageDropped):
                yield from cluster.network.transfer(src, dst, 1 << 20)

        run_sync(cluster.env, scenario(), label="stale-incarnation")
        assert cluster.network.dropped == 1


# ------------------------------------------------------------- invariants
class TestInvariantChecker:
    def test_clean_world_passes(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        report = check_convergence(world.region, world.dfs)
        assert report.ok, report.problems
        assert report.checks["leaked_waiters"] == 0

    def test_unaccounted_loss_detected(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        world.region.ops_submitted += 3  # forge uncounted submissions
        report = check_convergence(world.region, world.dfs)
        assert not report.ok
        assert any("loss accounting" in p for p in report.problems)

    def test_divergence_detected_against_reference(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        reference = namespace_entries(world.dfs.namespace, "/app")
        extra = reference + [("/app/ghost", False, 0o644, 0, 0, 0)]
        report = check_convergence(world.region, world.dfs,
                                   reference_entries=extra,
                                   lost_ops=0)
        assert not report.ok
        assert any("diverged" in p for p in report.problems)
        assert namespace_digest(reference) == report.digest
