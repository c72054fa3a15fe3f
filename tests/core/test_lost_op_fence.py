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
from repro.core.permissions import PermissionSpec
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
    recover_node(region, node)
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


def _crash_on_reply(monkeypatch, w, method, applied=True, meanwhile=None):
    """Node 0's DFS ``method`` reaches the MDS (or, with ``applied``
    false, does not), ``meanwhile`` runs, then node 0 crashes and the
    client sees :class:`NodeDownError` — the reply is lost either way."""
    real = getattr(w.client.dfs_client, method)

    def crash(*args, **kwargs):
        if applied:
            yield from real(*args, **kwargs)
        if meanwhile is not None:
            yield from meanwhile()
        fail_node(w.region, w.nodes[0])
        raise NodeDownError(f"{method} reply lost")

    monkeypatch.setattr(w.client.dfs_client, method, crash)


def _recover_node0(w):
    recover_node(w.region, w.nodes[0])
    w.quiesce()


def test_an_rmdir_whose_reply_is_lost_leaves_no_record_of_its_subtree(
        monkeypatch):
    """The DFS removed the tree; the region finishes the cache side the
    client never ran, so nothing reads or creates under it, and a create
    queued under it while the reply was in flight is discarded."""
    w = make_world(n_nodes=2)
    other = w.new_client(1)
    leaf = _kept_by_node1(w.region, "d/x")
    w.run(w.client.mkdir("/app/d"))
    w.run(other.create(leaf))  # other memoizes /app/d
    w.quiesce()
    _crash_on_reply(monkeypatch, w, "rmdir",
                    meanwhile=lambda: other.create("/app/d/z"))
    with pytest.raises(NodeDownError):
        w.run(w.client.rmdir("/app/d"))
    _recover_node0(w)
    assert not w.dfs.namespace.exists("/app/d")
    assert w.region.cache.peek(leaf) is None
    assert w.region.cache.peek("/app/d/z") is None
    assert w.region.commit_processes[1].discarded == 1
    with pytest.raises(FileNotFound):
        w.run(other.getattr(leaf))
    with pytest.raises(FileNotFound):
        w.run(other.create("/app/d/y"))
    w.quiesce()  # nothing queued resubmits forever


def test_an_rmdir_lost_before_the_dfs_keeps_its_subtree(monkeypatch):
    w = make_world(n_nodes=2)
    leaf = _kept_by_node1(w.region, "d/x")
    w.run(w.client.mkdir("/app/d"))
    w.run(w.client.create(leaf))
    w.quiesce()
    _crash_on_reply(monkeypatch, w, "rmdir", applied=False)
    with pytest.raises(NodeDownError):
        w.run(w.client.rmdir("/app/d"))
    _recover_node0(w)
    assert w.dfs.namespace.exists(leaf)
    assert not w.region.inside_removed_subtree(leaf)
    assert w.run(w.new_client(1).getattr(leaf)) is not None


def test_a_rename_whose_reply_is_lost_leaves_no_record_of_its_source(
        monkeypatch):
    w = make_world(n_nodes=2)
    src = _kept_by_node1(w.region, "f")
    w.run(w.client.create(src))
    w.quiesce()
    assert w.region.cache.peek(src)["committed"]
    _crash_on_reply(monkeypatch, w, "rename")
    with pytest.raises(NodeDownError):
        w.run(w.client.rename(src, "/app/moved"))
    _recover_node0(w)
    assert not w.dfs.namespace.exists(src)
    assert w.region.cache.peek(src) is None
    other = w.new_client(1)
    with pytest.raises(FileNotFound):
        w.run(other.getattr(src))
    assert w.run(other.getattr("/app/moved")) is not None


@pytest.mark.parametrize("applied", [False, True],
                         ids=["lost-before-the-dfs", "dfs-took-it"])
def test_a_chmod_whose_reply_is_lost_agrees_with_the_dfs(applied,
                                                         monkeypatch):
    """Lost before the DFS took it, the cached record and the special
    list had the new mode and the DFS never did: both fall back to the
    DFS's.  Taken by the DFS, all three keep the new mode.  Either way
    the small file's bytes, which live only in its record, survive."""
    w = make_world(n_nodes=2)
    path = _kept_by_node1(w.region, "f")
    w.run(w.client.create(path))
    w.quiesce()
    w.run(w.client.write(path, 0, data=b"kept"))
    before = w.dfs.namespace.getattr(path).mode
    assert before != 0o600
    _crash_on_reply(monkeypatch, w, "setattr", applied=applied)
    with pytest.raises(NodeDownError):
        w.run(w.client.chmod(path, 0o600))
    _recover_node0(w)
    mode = w.dfs.namespace.getattr(path).mode
    assert mode == (0o600 if applied else before)
    assert w.run(w.new_client(1).getattr(path)).mode == mode
    assert w.region.permissions.effective(path).mode == mode
    assert w.run(w.new_client(1).read(path, 0, 4)) == b"kept"


def test_a_lost_rm_keeps_the_special_entry_of_the_file_it_leaves():
    w = make_world(n_nodes=2)
    path = _kept_by_node1(w.region, "f")
    w.run(w.client.create(path))
    w.run(w.client.chmod(path, 0o600))
    w.quiesce()
    w.run(w.client.rm(path))
    assert path not in w.region.permissions.special
    assert fail_node(w.region, w.nodes[0]).lost_queued_ops == 1
    recover_node(w.region, w.nodes[0])
    w.quiesce()
    assert w.dfs.namespace.getattr(path).mode & 0o777 == 0o600
    assert w.region.permissions.effective(path).mode == 0o600


@pytest.mark.parametrize("keeper", [1, 0])
def test_a_lost_rm_gives_back_exactly_the_entry_it_dropped(keeper):
    """The entry's owner differs from the record's, so only the entry the
    rm dropped can restore it.  With ``keeper`` 0 the crash wipes the
    tombstone too, and the DFS copy is the file that lives on."""
    w = make_world(n_nodes=2)
    path = next(p for p in (f"/app/f{i}" for i in range(64))
                if w.region.cache.shard_for(p).node is w.nodes[keeper])
    w.run(w.client.create(path))
    w.run(w.client.chmod(path, 0o600))
    spec = PermissionSpec(mode=0o600, uid=1000, gid=2000)
    w.region.permissions.add_special(path, spec)
    w.quiesce()
    w.run(w.client.rm(path))
    assert w.region.permissions.special == {}
    assert fail_node(w.region, w.nodes[0]).lost_queued_ops == 1
    recover_node(w.region, w.nodes[0])
    w.quiesce()
    assert w.dfs.namespace.getattr(path).mode & 0o777 == 0o600
    assert w.region.permissions.special == {path: spec}


def test_a_lost_rm_adds_no_entry_its_file_never_had():
    """A create with an explicit mode puts nothing on the special list,
    so the lost rm of that file has nothing to give back."""
    w = make_world(n_nodes=2)
    path = _kept_by_node1(w.region, "f")
    w.run(w.client.create(path, mode=0o600))
    w.quiesce()
    w.run(w.client.rm(path))
    assert fail_node(w.region, w.nodes[0]).lost_queued_ops == 1
    recover_node(w.region, w.nodes[0])
    w.quiesce()
    assert w.dfs.namespace.getattr(path).mode & 0o777 == 0o600
    assert w.region.permissions.special == {}


@pytest.mark.parametrize("method", ["rmdir", "rename"])
def test_a_lost_reply_still_prunes_the_special_list(method, monkeypatch):
    """The DFS took the rmdir (or rename) of ``/app/d``: the fence drops
    the entries under it (or moves them under ``/app/e``)."""
    w = make_world(n_nodes=2)
    leaf = _kept_by_node1(w.region, "d/x")
    w.run(w.client.mkdir("/app/d"))
    w.run(w.client.create(leaf))
    w.run(w.client.chmod(leaf, 0o400))
    w.quiesce()
    _crash_on_reply(monkeypatch, w, method)
    with pytest.raises(NodeDownError):
        if method == "rmdir":
            w.run(w.client.rmdir("/app/d"))
        else:
            w.run(w.client.rename("/app/d", "/app/e"))
    _recover_node0(w)
    perms = w.region.permissions
    if method == "rmdir":
        assert perms.special == {}
    else:
        moved = "/app/e" + leaf[len("/app/d"):]
        assert set(perms.special) == {moved}
        assert perms.effective(moved).mode == 0o400
        assert w.dfs.namespace.getattr(moved).mode & 0o777 == 0o400
