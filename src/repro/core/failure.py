"""Failure injection for client nodes and MDS servers (§III.G).

A failed client node loses (a) the cache shard it hosted — part of the
region's *primary* metadata copy — and (b) every uncommitted operation
sitting in its commit queue or mid-commit in its commit process.  The
blast radius is exactly one consistent region; other regions' caches and
queues are untouched, which the tests assert.

Recovery = bring the node back, restart its commit process at the
region's current barrier epoch (re-publishing any barrier markers the
crash destroyed so region-wide rendezvous can still complete), and
optionally roll the region subtree back to the latest checkpoint
(:class:`repro.core.checkpoint.CheckpointManager`).

An MDS crash is different in kind: Pacon clients keep working against
the cache, and the commit pipeline *replays* operations whose round
trips were lost (commit tokens make the replay idempotent), so an MDS
crash-recover cycle loses nothing — the convergence invariant in
:mod:`repro.chaos.invariants` asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.commit import BarrierMessage, OpMessage

__all__ = ["FailureReport", "fail_node", "recover_node",
           "fail_mds", "recover_mds"]


@dataclass
class FailureReport:
    """What a node failure destroyed."""

    node_name: str
    region_name: str
    lost_cache_entries: int
    lost_queued_ops: int


def fail_node(region, node) -> FailureReport:
    """Crash ``node``: wipe its shard, drop its queued and in-flight ops,
    kill its commit process, and take its NIC offline.

    The commit process is aborted *before* the queue is drained: aborting
    cancels its pending ``get`` wait, which pushes a granted-but-
    undelivered message back into the queue so the drain counts it
    exactly once.  The ops ``abort`` returns plus the drained queue's are
    the lost set: the version-lag ledger is reconciled once over it, and
    the lost-op fence (:meth:`~repro.core.region.ConsistentRegion.
    fence_lost`) over every op in it.
    Only :class:`OpMessage` instances count as lost operations — barrier
    markers are control traffic, re-published by :func:`recover_node`,
    and counting them would break the
    ``submitted == committed + discarded + coalesced + lost`` identity
    the chaos invariant checker enforces.
    """
    if node not in region.nodes:
        raise ValueError(f"node {node.name} not in region {region.name}")
    node.fail()
    lost_cache = 0
    for shard in region.shards:
        if shard.node is node:
            lost_cache += len(shard.kv)
            shard.kv.flush_all()
    lost = []
    for cp in region.commit_processes:
        if cp.node is node:
            lost += cp.abort(reason="node-failure")
    queue = region.queues.route(node.node_id)
    lost += [msg for msg in queue.drain() if isinstance(msg, OpMessage)]
    for op in lost:
        if region.hub.enabled:
            # Reconcile the version-lag ledger: this published mutation
            # will never commit, so it must stop counting as pending.
            region.note_op_resolved(op.path)
        region.fence_lost(op.op, op.path, op.gen_ino, special=op.special)
    return FailureReport(
        node_name=node.name,
        region_name=region.name,
        lost_cache_entries=lost_cache,
        lost_queued_ops=len(lost),
    )


def recover_node(region, node) -> None:
    """Bring a node back up (cache shard empty, queue empty) and restart
    its commit process at the region's current barrier position."""
    if node not in region.nodes:
        raise ValueError(f"node {node.name} not in region {region.name}")
    node.recover()
    for cp in region.commit_processes:
        if cp.node is node and (cp.killed or not cp.alive):
            # The kill interrupt (scheduled at higher priority) stops
            # the old loop before this fresh one's bootstrap runs.
            cp.killed = False
            # Epoch floor: epochs complete in order, so the restarted
            # process can never be asked to drain an epoch that the
            # region already finished — e.g. its own arrival was
            # triggered but undelivered at the crash instant.
            if region.barrier_epochs_completed > cp.current_epoch:
                cp.current_epoch = region.barrier_epochs_completed
            cp.start()
            _republish_barriers(region, node, cp)


def _republish_barriers(region, node, cp) -> None:
    """Re-publish barrier markers the crash destroyed.

    The queue drain on failure also destroyed the barrier messages of
    epochs still in flight; without them the restarted commit process
    never drains those epochs and the region-wide rendezvous hangs every
    other node forever.  For each epoch between the process's resume
    point and the client epoch, publish the *shortfall* against the
    expected per-epoch count — markers that survived in the backlog (the
    failure may have raced a broadcast) are not double-published.
    """
    queue = region.queues.route(node.node_id)
    in_backlog: dict = {}
    for msg in queue.backlog():
        if isinstance(msg, BarrierMessage):
            in_backlog[msg.epoch] = in_backlog.get(msg.epoch, 0) + 1
    expected = region.expected_barrier_messages(node.node_id)
    for epoch in range(cp.current_epoch, region.client_epoch):
        for _ in range(expected - in_backlog.get(epoch, 0)):
            queue.publish(BarrierMessage(epoch=epoch,
                                         node_id=node.node_id,
                                         timestamp=region.env.now))


def fail_mds(dfs, index: int = 0):
    """Crash one MDS server's node; in-flight RPCs to it are dropped.

    Returns the server.  Clients inside a consistent region keep working
    (their writes are cache-side); commit processes see the loss as
    :class:`~repro.sim.network.NodeDownError` and replay.
    """
    server = dfs.mds_servers[index]
    server.node.fail()
    return server


def recover_mds(dfs, index: int = 0):
    """Bring an MDS server's node back; its service resumes immediately
    (handlers run in the caller's process — there is no loop to restart).
    """
    server = dfs.mds_servers[index]
    server.node.recover()
    return server
