"""The lost-op fence (§III.G): no op outlives a lost op it depends on.

One deterministic pin per part of ``ConsistentRegion.fence_lost``.  The
crash-instant property (``tests/properties/test_crash_accounting.py``)
draws where a crash lands; these pin the dependents its two-client
workload never builds — another node's ops queued behind a lost op — and
the two halves of a write whose node dies between cache and queue.
"""

import pytest

from repro.core.config import PaconConfig
from repro.core.failure import fail_node, recover_node
from repro.dfs.errors import FileNotFound
from repro.sim.core import run_sync
from repro.sim.network import NodeDownError
from tests.core.conftest import make_paused_world, make_world


def _paused():
    """Two nodes, commit processes not started: published ops wait in
    their queues until :func:`_crash_node0_then_drain`."""
    cluster, dfs, deployment, region, client = make_paused_world(
        PaconConfig(workspace="/app"))
    other = deployment.client(region, region.nodes[1])
    return dfs, deployment, region, client, other


def _crash_node0_then_drain(deployment, region) -> int:
    node = region.nodes[0]
    lost = fail_node(region, node).lost_queued_ops
    recover_node(region, node, restart_commit=False)
    deployment.start_commit_processes(region)
    region.env.run()  # until every commit process waits on an empty queue
    resolved = sum(cp.committed + cp.discarded + cp.coalesced
                   for cp in region.commit_processes)
    assert region.ops_submitted == resolved + lost
    return lost


def _run(region, gen):
    return run_sync(region.env, gen)


def _kept_by_node1(region, stem: str) -> str:
    """A path whose cache record lives on node 1's shard, so a crash of
    node 0 leaves it for the fence to reconcile."""
    return next(p for p in (f"/app/{stem}{i}" for i in range(64))
                if region.cache.shard_for(p).node is region.nodes[1])


def test_a_lost_creates_rm_is_discarded_and_an_older_generations_commits():
    dfs, deployment, region, client, other = _paused()
    dfs.namespace.create("/app/f", uid=1000, gid=1000)
    _run(region, other.rm("/app/f"))          # generation 0, node 1
    _run(region, client.create("/app/f"))     # generation 1, node 0
    _run(region, other.rm("/app/f"))          # generation 1, node 1
    assert _crash_node0_then_drain(deployment, region) == 1
    committer = region.commit_processes[1]
    assert (committer.committed, committer.discarded) == (1, 1)
    assert not dfs.namespace.exists("/app/f")
    assert region.cache.peek("/app/f") is None


def test_a_lost_mkdir_takes_its_subtree_and_the_ops_queued_under_it():
    dfs, deployment, region, client, other = _paused()
    _run(region, client.mkdir("/app/d"))      # node 0: lost
    _run(region, other.create("/app/d/x"))    # node 1: queued behind it
    assert _crash_node0_then_drain(deployment, region) == 1
    assert region.cache.peek("/app/d") is None
    assert region.cache.peek("/app/d/x") is None
    assert region.commit_processes[1].discarded == 1
    assert not dfs.namespace.exists("/app/d")
    # The creator's memo of the directory went too: its next create
    # checks the parent for real instead of queueing another orphan.
    with pytest.raises(FileNotFound):
        _run(region, client.create("/app/d/y"))


def test_a_lost_rm_leaves_the_file_in_place():
    w = make_world(n_nodes=2)
    path = _kept_by_node1(w.region, "f")
    w.run(w.client.create(path))
    w.quiesce()
    w.run(w.client.rm(path))
    assert fail_node(w.region, w.nodes[0]).lost_queued_ops == 1
    recover_node(w.region, w.nodes[0])
    w.quiesce()
    assert w.dfs.namespace.exists(path)
    assert w.run(w.new_client(1).getattr(path)) is not None


@pytest.mark.parametrize("op", ["create", "mkdir"])
def test_a_publish_on_a_dead_node_is_refused_and_its_write_fenced(
        op, monkeypatch):
    """The node dies between the cache write and the publish: the queue
    takes nothing, and the write that landed on the surviving shard is
    a lost op like any the crash destroyed."""
    w = make_world(n_nodes=2)
    path = _kept_by_node1(w.region, "e")
    publish = w.client._publish

    def crash_first(*args, **kwargs):
        fail_node(w.region, w.nodes[0])
        return (yield from publish(*args, **kwargs))

    monkeypatch.setattr(w.client, "_publish", crash_first)
    with pytest.raises(NodeDownError):
        w.run(getattr(w.client, op)(path))
    assert len(w.region.queues.route(w.nodes[0].node_id)) == 0
    assert w.region.ops_submitted == 0
    assert w.region.cache.peek(path) is None


def test_a_write_that_never_landed_fences_nothing():
    """A mkdir refused at send (its node is already down) lost nothing:
    the directory another client made stays, and so does its subtree."""
    w = make_world(n_nodes=2)
    other = w.new_client(1)
    leaf = _kept_by_node1(w.region, "d/x")
    w.run(other.mkdir("/app/d"))
    w.run(other.create(leaf))
    w.quiesce()
    fail_node(w.region, w.nodes[0])
    with pytest.raises(NodeDownError):
        w.run(w.client.mkdir("/app/d"))
    assert not w.region.inside_removed_subtree(leaf)
    assert w.region.cache.peek(leaf) is not None
