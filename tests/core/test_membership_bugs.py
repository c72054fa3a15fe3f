"""Regression tests for the membership-change lifecycle bugs.

Three bugs surfaced by auditing :mod:`repro.core.deploy` for the
autoscaler:

1. retiring the only remaining node raised a bare ``StopIteration``
   inside the generator (→ ``RuntimeError`` under PEP 479) instead of a
   clear refusal;
2. grow migration wrote moved records with a clobbering ``set``, so a
   record mutated concurrently on the new shard mid-migration was
   silently reverted to the stale departing copy;
3. ``quiesce`` polled ``cp.idle`` over *all* commit processes including
   crashed ones, so quiesce (and therefore grow/retire/close) hung
   forever after a chaos ``fail_node``.
"""

import pytest

from repro.core.failure import fail_node, recover_node
from tests.core.conftest import make_world


class TestRetireLastNode:
    def test_retiring_last_node_is_refused(self):
        w = make_world(n_nodes=1)
        with pytest.raises(ValueError, match="shrink below"):
            w.run(w.deployment.retire_node_async(w.region, w.nodes[0]))

    def test_refusal_leaves_region_untouched(self):
        w = make_world(n_nodes=1)
        w.run(w.client.create("/app/survivor"))
        with pytest.raises(ValueError):
            w.run(w.deployment.retire_node_async(w.region, w.nodes[0]))
        assert w.region.nodes == [w.nodes[0]]
        assert len(w.region.shards) == 1
        assert all(cp.alive for cp in w.region.commit_processes)
        # The region still works end to end after the refused retirement.
        w.quiesce()
        assert w.dfs.namespace.exists("/app/survivor")

    def test_retiring_foreign_node_is_refused(self):
        w = make_world(n_nodes=2)
        outsider = w.cluster.add_node("outsider")
        with pytest.raises(ValueError, match="not part of region"):
            w.run(w.deployment.retire_node_async(w.region, outsider))


class TestGrowMigrationRace:
    def test_concurrent_mutation_survives_migration(self):
        """A record written to the new shard *while* migration is copying
        older keys must not be reverted by the stale departing copy."""
        w = make_world(n_nodes=2)
        env = w.cluster.env
        for i in range(40):
            w.run(w.client.create(f"/app/f{i:02d}"))
        w.quiesce()
        new_node = w.cluster.add_node("grown")
        hit = {}

        def racer():
            while new_node not in w.region.nodes:
                yield 5e-6
            new_shard = next(s for s in w.region.shards
                             if s.node is new_node)
            # Keys below are still on their old shards but now route to
            # the new shard: migration will move them in this order.
            pending = []
            for old in w.region.shards:
                if old is new_shard:
                    continue
                for key, rec in old.kv.scan_prefix(""):
                    if w.region.cache.shard_for(key) is new_shard:
                        pending.append((key, rec))
            assert len(pending) >= 2, "need a key migrated late enough"
            key, rec = pending[-1]
            mutated = dict(rec, mode=0o640)
            yield from new_shard.request(w.nodes[0], "set", key, mutated)
            hit["key"], hit["shard"] = key, new_shard

        def driver():
            env.process(racer(), label="racer")
            moved = yield from w.deployment.grow_region_async(
                w.region, new_node)
            return moved

        moved = w.run(driver())
        assert moved > 0
        key, new_shard = hit["key"], hit["shard"]
        record = new_shard.kv.get(key)
        assert record is not None
        assert record["mode"] == 0o640, \
            "stale departing copy clobbered the concurrent mutation"
        # The old copy is gone regardless of who won.
        for old in w.region.shards:
            if old is not new_shard:
                assert old.kv.get(key) is None


class TestQuiesceWithDeadProcess:
    def test_quiesce_completes_after_node_crash(self):
        """Barrier markers broadcast into a dead node's queue must not
        wedge quiesce: the dead process is recovery's problem."""
        w = make_world(n_nodes=3)
        env = w.cluster.env
        w.run(w.client.mkdir("/app/d"))
        w.quiesce()
        fail_node(w.region, w.nodes[2])
        # Broadcasts a barrier marker into every queue — including the
        # dead node's, which nothing drains until recovery.
        w.region.trigger_barrier()
        proc = env.process(w.deployment.quiesce(w.region), label="q")
        env.run(until=env.now + 0.05)
        assert not proc.is_alive, "quiesce hung on a crashed process"

    def test_recovery_after_skipped_quiesce_converges(self):
        w = make_world(n_nodes=3)
        env = w.cluster.env
        w.run(w.client.mkdir("/app/d"))
        w.quiesce()
        fail_node(w.region, w.nodes[2])
        w.region.trigger_barrier()
        proc = env.process(w.deployment.quiesce(w.region), label="q")
        env.run(until=env.now + 0.05)
        assert not proc.is_alive
        recover_node(w.region, w.nodes[2])
        env.run(until=env.now + 0.05)  # let the epoch rendezvous finish
        w.quiesce()
        assert all(cp.idle for cp in w.region.commit_processes)
        assert w.region.barrier_epochs_completed == w.region.client_epoch

    def test_grow_while_peer_is_down(self):
        """Chaos-interleaved growth: scale-up racing a node crash must
        complete (skipping the wiped, unreachable shard) and converge
        once the peer recovers."""
        w = make_world(n_nodes=3)
        for i in range(20):
            w.run(w.client.create(f"/app/f{i:02d}"))
        w.quiesce()
        fail_node(w.region, w.nodes[1])
        new_node = w.cluster.add_node("grown")
        moved = w.run(w.deployment.grow_region_async(w.region, new_node))
        assert new_node in w.region.nodes
        assert moved >= 0
        recover_node(w.region, w.nodes[1])
        w.quiesce()
        # Every record is still reachable (wiped/moved ones refill).
        for i in range(20):
            inode = w.run(w.client.getattr(f"/app/f{i:02d}"))
            assert inode.is_file
