"""Tests for the commit module: independent + barrier disciplines (§III.E)."""

import pytest

from repro.core.commit import OpMessage
from repro.core.config import PaconConfig
from repro.sim.core import _Parked, run_sync
from tests.core.conftest import make_paused_world, make_world


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
        world.cluster.env.run()
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
        world.cluster.env.run()
        assert world.dfs.namespace.exists("/app/f")
        for cp in world.region.commit_processes:
            assert cp.idle

    def test_idle_loop_is_parked_on_its_queue(self, world):
        """An idle commit loop is parked on its node's queue: it waits on
        its own waiter entry there, with no event and no callback."""
        world.run(world.client.create("/app/f"))
        world.quiesce()
        for cp in world.region.commit_processes:
            handle = cp._process.waiting_on
            assert isinstance(handle, _Parked) and handle.owner is cp.queue
            assert list(cp.queue._getters) == [handle.mark]
            assert handle.mark is cp._process._waiting_on

    def test_idle_reflects_backlog(self, world):
        world.run(world.client.create("/app/f"))
        # Immediately after the op returns, some process has backlog.
        assert any(not cp.idle for cp in world.region.commit_processes)
        world.quiesce()
        assert all(cp.idle for cp in world.region.commit_processes)


def _chain(generator):
    """The ``yield from`` chain hanging off ``generator``, itself first."""
    chain = [generator]
    while chain[-1].gi_yieldfrom is not None:
        chain.append(chain[-1].gi_yieldfrom)
    return chain


def _in_gets_nic_booking(process):
    """Asleep in a NIC booking inside the post-commit ``gets`` round trip.

    Nothing else runs in the world, so a NIC of the round trip has a
    channel booked at this instant exactly while this process sleeps in
    one of its hops (both run in ``request``'s own frame)."""
    request = _chain(process._generator)[-1]
    if request.gi_code.co_name != "request":
        return False
    rpc = request.gi_frame.f_locals
    return (rpc.get("method") == "gets"
            and process.waiting_on is None
            and 1 in (rpc["src"].nic.in_use, rpc["node"].nic.in_use))


class TestCommitFrames:
    """Every resume of a post-commit cache RPC re-enters the commit
    process's whole ``yield from`` chain: keep it at most five deep."""

    @pytest.mark.parametrize("n_ops", [1, 3])   # lone DFS call; one batch
    def test_post_commit_gets_runs_five_frames_deep(self, n_ops):
        cluster, dfs, deployment, region, client = make_paused_world(
            PaconConfig(workspace="/app"))
        for i in range(n_ops):
            run_sync(cluster.env, client.create(f"/app/f{i}"))   # node 0
        deployment.start_commit_processes(region)
        cp = next(p for p in region.commit_processes
                  if p.node is region.nodes[0])
        while not _in_gets_nic_booking(cp._process):
            cluster.env.step()
        names = [g.gi_code.co_name for g in _chain(cp._process._generator)]
        assert names == ["run", "_commit_segment", "_commit_success",
                         "request"]

        # A crash right there: the first op has committed, the rest of
        # the drain has not.
        assert cp.committed == 1
        lost = cp.abort(reason="test")
        assert [op.path for op in lost] == [f"/app/f{i}"
                                            for i in range(1, n_ops)]
        cluster.env.run()
        assert not cp.alive and not cp._drain and not cp._unsettled
        queue = region.queues.route(region.nodes[0].node_id)
        assert queue.waiting_getters == 0
        resources = ([node.nic for node in cluster.nodes]
                     + [shard.workers for shard in region.shards]
                     + [mds.workers for mds in dfs.mds_servers])
        assert [(r.in_use, r.queue_length) for r in resources] == \
            [(0, 0)] * len(resources)
        resolved = sum(p.committed + p.discarded + p.coalesced
                       for p in region.commit_processes)
        assert region.ops_submitted == resolved + len(lost) == n_ops
