"""Region bookkeeping fixes: the removed-subtree index and elastic growth
during an in-flight barrier rendezvous.

The removed-subtree index used to be two structures: timestamped entries
pruned below the oldest outstanding op, and a never-pruned set for the
"ever removed" orphan query.  It is one never-pruned dict of prefix ->
latest removal time now (the set already spent whatever memory the
pruner saved).  The prune assertions deleted with the pruner, and what
still checks the behaviour each one guarded:

* ``len(removed_subtrees) <= 600`` after 10k rmdirs — the index is
  bounded by distinct prefixes, not rmdirs
  (``test_index_stays_bounded_after_many_rmdirs``);
* ``len(_ever_removed) == 10_000`` — the same test: one entry per prefix;
* ``removed_subtrees.keys() == {"/app/fresh"}`` after a prune — nothing
  to prune; the bounded and unbounded answers it protected are asserted
  in ``test_pruning_preserves_discard_semantics``;
* ``prune_removed_subtrees() == 0`` with a queued op older than the
  removal, and ``removed_subtrees == {}`` after the drain — the queued op
  is still doomed by the removal however long it waited
  (``test_queue_backlog_holds_the_prune_cutoff``).
"""

import time

from repro.core.commit import CommitProcess
from repro.core.config import PaconConfig
from tests.core.conftest import make_world


def advance(world, dt):
    def gen():
        yield dt
    world.run(gen())


class TestRemovedSubtreePruning:
    def test_index_stays_bounded_after_many_rmdirs(self):
        """10k recorded removals of 100 names hold 100 entries, each at
        its latest removal time."""
        world = make_world()
        region = world.region
        for i in range(10_000):
            if i % 500 == 0:
                advance(world, 1e-3)
            region.note_removed_subtree(f"/app/d{i % 100}")
        assert len(region._removed_subtrees) == 100
        assert set(region._removed_subtrees.values()) == {
            world.cluster.env.now}

    def test_discard_checks_stay_flat_after_many_rmdirs(self):
        """The discard precheck is O(path depth), not O(#removals ever).
        A linear scan of 10k entries per check (the old representation)
        takes tens of seconds here; the prefix index takes well under a
        second even on slow CI."""
        world = make_world()
        for i in range(10_000):
            world.region.note_removed_subtree(f"/app/d{i}")
        started = time.perf_counter()
        for i in range(20_000):
            world.region.inside_removed_subtree(f"/app/d{i % 10_000}/x/y",
                                                0.0)
            world.region.inside_removed_subtree(f"/app/d{i % 10_000}/x/y")
        assert time.perf_counter() - started < 2.0

    def test_pruning_preserves_discard_semantics(self):
        """An op with ts == removed_at is doomed, a later one is not, and
        the timestamp-free orphan query never forgets an old removal."""
        world = make_world()
        region = world.region
        region.note_removed_subtree("/app/old")
        advance(world, 1.0)
        region.note_removed_subtree("/app/fresh")
        removed_at = world.cluster.env.now
        assert region.inside_removed_subtree("/app/fresh/f", removed_at)
        assert not region.inside_removed_subtree("/app/fresh/f",
                                                 removed_at + 1e-9)
        assert not region.inside_removed_subtree("/app/old/f", removed_at)
        assert region.inside_removed_subtree("/app/old/f")
        assert not region.inside_removed_subtree("/app/other/f")

    def test_queue_backlog_holds_the_prune_cutoff(self):
        """A queued op older than a removal is discarded by it, however
        long it waited in the backlog."""
        world = make_world(config=PaconConfig(workspace="/app",
                                              parent_check=False))
        region = world.region
        # Publish an op that cannot commit yet (missing parent) so the
        # pipeline retains something old.  Short advances: the blocked op
        # burns one resubmission per RETRY_DELAY while we wait.
        world.run(world.client.create("/app/missing/leaf"))
        advance(world, 1e-3)
        region.note_removed_subtree("/app/missing")
        world.quiesce()
        assert sum(cp.discarded for cp in region.commit_processes) == 1
        assert not world.dfs.namespace.exists("/app/missing/leaf")

    def test_commits_still_work_after_heavy_pruning(self):
        world = make_world()
        for i in range(1000):
            world.region.note_removed_subtree(f"/app/gone{i}")
        advance(world, 1e-3)
        world.run(world.client.create("/app/alive"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/alive")


class TestGrowDuringBarrier:
    def test_add_node_mid_rendezvous_does_not_deadlock(self):
        """Growing the region while a barrier epoch is in flight must not
        change that epoch's party count: the new node has no barrier
        message for it and could never arrive."""
        world = make_world(n_nodes=2)
        env = world.cluster.env
        world.run(world.client.create("/app/f1"))
        _epoch, done = world.region.trigger_barrier()
        # Grow while the rendezvous is pending (no quiesce on purpose).
        new_node = world.cluster.add_node("grown")
        world.region.add_node(new_node)
        dfs_client = world.dfs.client(new_node,
                                      uid=world.region.config.uid,
                                      gid=world.region.config.gid)
        CommitProcess(world.region, new_node, dfs_client).start()
        env.run()
        assert done.triggered  # deadlock shows up as an untriggered event
        assert world.region.barrier_epochs_completed == 1
        # The deferred bump landed once the in-flight epoch completed.
        assert world.region.commit_barrier.parties == 3

    def test_grown_node_participates_in_later_epochs(self):
        world = make_world(n_nodes=2)
        env = world.cluster.env
        world.run(world.client.create("/app/f1"))
        _epoch, done = world.region.trigger_barrier()
        new_node = world.cluster.add_node("grown")
        world.region.add_node(new_node)
        dfs_client = world.dfs.client(new_node,
                                      uid=world.region.config.uid,
                                      gid=world.region.config.gid)
        grown_cp = CommitProcess(world.region, new_node, dfs_client)
        grown_cp.start()
        env.run()
        assert done.triggered
        _epoch2, done2 = world.region.trigger_barrier()
        env.run()
        assert done2.triggered
        assert world.region.barrier_epochs_completed == 2
        assert grown_cp.barriers_passed == 1

    def test_quiesced_growth_bumps_immediately(self):
        """The deploy-level path (quiesce first) needs no deferral."""
        world = make_world(n_nodes=2)
        world.run(world.client.create("/app/f"))
        world.quiesce()
        new_node = world.cluster.add_node("grown")
        world.region.add_node(new_node)
        assert world.region.commit_barrier.parties == 3
        assert world.region._deferred_barrier_parties == []
