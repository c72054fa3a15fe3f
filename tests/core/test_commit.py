"""Tests for the commit module: independent + barrier disciplines (§III.E)."""

import pytest

from repro.core.commit import CommitProcess, OpMessage
from repro.core.config import PaconConfig
from tests.core.conftest import make_world


class TestOpMessage:
    def test_only_independent_ops(self):
        with pytest.raises(ValueError):
            OpMessage(op="rmdir", path="/x")

    def test_fields(self):
        msg = OpMessage(op="create", path="/a", mode=0o600, epoch=3,
                        client_id=7, timestamp=1.5)
        assert (msg.op, msg.epoch, msg.client_id) == ("create", 3, 7)
        assert msg.retries == 0


class TestIndependentCommit:
    def test_out_of_order_cross_node_creates_converge(self):
        """Child queued on one node, parent on another: resubmission sorts
        the commit order out (§III.E independent commit)."""
        world = make_world(config=PaconConfig(workspace="/app",
                                              parent_check=False))
        child_client = world.new_client(0)
        parent_client = world.new_client(3)
        # Publish child first (its commit will ENOENT until parent lands).
        world.run(child_client.create("/app/dir/leaf"))
        world.run(parent_client.mkdir("/app/dir"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/dir/leaf")
        resubs = sum(cp.resubmissions for cp in world.region.commit_processes)
        assert resubs >= 1

    def test_deep_chain_out_of_order(self):
        world = make_world(config=PaconConfig(workspace="/app",
                                              parent_check=False))
        clients = [world.new_client(i % 4) for i in range(4)]
        # Queue deepest-first across different nodes.
        paths = ["/app/a/b/c/d", "/app/a/b/c", "/app/a/b", "/app/a"]
        for cl, path in zip(clients, paths):
            world.run(cl.mkdir(path))
        world.quiesce()
        for path in paths:
            assert world.dfs.namespace.exists(path)

    def test_rm_waits_for_create(self):
        """rm committed on a different node than the pending create."""
        world = make_world(config=PaconConfig(workspace="/app",
                                              parent_check=False))
        creator = world.new_client(0)
        world.run(creator.create("/app/dir/f"))   # blocked: no parent yet
        remover = world.new_client(2)
        world.run(remover.rm("/app/dir/f"))
        world.run(creator.mkdir("/app/dir"))
        world.quiesce()
        assert world.dfs.namespace.exists("/app/dir")
        assert not world.dfs.namespace.exists("/app/dir/f")

    def test_commit_stats_exposed(self, world):
        world.run(world.client.create("/app/f"))
        world.quiesce()
        committed = sum(cp.committed for cp in world.region.commit_processes)
        assert committed == 1
        assert world.region.ops_committed == 1


class TestBarrierCommit:
    def test_barrier_drains_all_nodes(self, world):
        clients = [world.new_client(i) for i in range(4)]
        for i, cl in enumerate(clients):
            for j in range(10):
                world.run(cl.create(f"/app/c{i}_{j}"))
        # readdir barriers; afterwards every create must be on the DFS.
        names = world.run(clients[0].readdir("/app"))
        assert len(names) == 40
        assert world.dfs.namespace.readdir("/app") == names

    def test_sequential_barriers_advance_epochs(self, world):
        world.run(world.client.create("/app/f1"))
        world.run(world.client.readdir("/app"))
        world.run(world.client.create("/app/f2"))
        world.run(world.client.readdir("/app"))
        assert world.region.barrier_epochs_completed == 2
        for cp in world.region.commit_processes:
            assert cp.current_epoch == 2
            assert cp.barriers_passed == 2

    def test_ops_after_barrier_carry_new_epoch(self, world):
        world.run(world.client.readdir("/app"))
        world.run(world.client.create("/app/f"))
        # The create landed in epoch 1 and still commits fine.
        world.quiesce()
        assert world.dfs.namespace.exists("/app/f")

    def test_barrier_with_pending_resubmissions(self):
        """A blocked op must commit before its node passes the barrier."""
        world = make_world(config=PaconConfig(workspace="/app",
                                              parent_check=False))
        world.run(world.client.create("/app/d/leaf"))  # blocked
        other = world.new_client(1)
        world.run(other.mkdir("/app/d"))
        # readdir barrier: must observe both ops committed.
        names = world.run(world.client.readdir("/app/d"))
        assert names == ["leaf"]

    def test_discard_of_doomed_creates(self, world):
        """Creates racing with an rmdir are discarded, not retried forever
        (§III.D.1)."""
        world.run(world.client.mkdir("/app/d"))
        world.run(world.client.create("/app/d/f"))
        racer = world.new_client(1)

        done = []

        def race():
            # Publish a create in the removal window, then rmdir.
            yield from world.client.rmdir("/app/d")
            done.append("rmdir")

        def straggler():
            yield from racer.create("/app/d/straggler")
            done.append("create")

        world.cluster.env.process(straggler())
        world.cluster.env.process(race())
        world.cluster.run()
        world.quiesce()
        discarded = sum(cp.discarded for cp in world.region.commit_processes)
        # Either the straggler committed before the rmdir wiped it, or it
        # was discarded; in both cases nothing stalls and the dir is gone.
        assert not world.dfs.namespace.exists("/app/d") or \
            world.dfs.namespace.readdir("/app/d") == []
        assert "rmdir" in done


class TestCommitProcessLifecycle:
    def test_close_drains_and_exits(self, world):
        world.run(world.client.create("/app/f"))
        world.region.close()
        world.cluster.run()
        assert world.dfs.namespace.exists("/app/f")
        for cp in world.region.commit_processes:
            assert cp.idle

    def test_idle_loop_waits_on_one_bare_callback(self, world):
        """The queue registers no callback of its own on the events it
        hands out (delivery is accounted at the hand-over), so an idle
        commit loop's wait keeps the kernel's single-callback fast path."""
        world.run(world.client.create("/app/f"))
        world.quiesce()
        for cp in world.region.commit_processes:
            waiting = cp._process.waiting_on
            assert waiting is not None and not waiting.triggered
            assert waiting.callbacks == cp._process._resume_cb

    def test_idle_reflects_backlog(self, world):
        world.run(world.client.create("/app/f"))
        # Immediately after the op returns, some process has backlog.
        assert any(not cp.idle for cp in world.region.commit_processes)
        world.quiesce()
        assert all(cp.idle for cp in world.region.commit_processes)
