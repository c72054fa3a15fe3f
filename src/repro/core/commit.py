"""Metadata operation commit (§III.D.1, §III.E).

Every metadata update in Pacon is two sub-operations: apply to the
distributed cache (done by the client), then apply to the DFS — done here.
Each region node runs one :class:`CommitProcess` (the subscriber of the
paper's Fig. 5) that drains its node's commit queue and applies operations
through an ordinary DFS client.

Commit disciplines:

* **Independent commit** — create/mkdir/rm need no temporal order, only the
  namespace conventions, which the DFS itself enforces by rejecting
  violations.  A rejected operation (e.g. parent not created yet because
  its creation sits in another node's queue) is simply *resubmitted* until
  it succeeds.  The §III.E proof that any such interleaving converges to
  the same namespace is exercised by
  ``tests/properties/test_commit_equivalence.py``.
* **Barrier commit** — rmdir/readdir must see all earlier operations
  committed.  Clients stamp every operation with a barrier epoch; a
  dependent operation broadcasts one barrier message per client into every
  node's queue and bumps the epoch.  A commit process that has drained all
  its local epoch-``e`` work arrives at a region-wide barrier; when the
  last process arrives, epoch ``e`` is globally committed and the waiting
  client proceeds.

One special rule from the paper: creations inside a directory removed by a
committed rmdir are *discarded*, not retried (they can never satisfy the
namespace conventions again).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    NotADirectory,
)
from repro.dfs.namespace import parent_of
from repro.mq.queue import QueueClosed
from repro.sim.core import Event, Interrupt, cancel_wait
from repro.sim.network import NodeDownError

__all__ = ["OpMessage", "BarrierMessage", "CommitProcess", "CommitStalled"]

#: Operations committed independently (non-dependent type), each mapped to
#: the DFS client method that applies it (``rm`` is POSIX ``unlink``).
DFS_METHOD = {"create": "create", "mkdir": "mkdir", "rm": "unlink"}

#: Delay between commit retries when an operation does not yet satisfy
#: the namespace conventions (parent not committed yet); also the poll
#: period of a client stalled on a full commit queue.
RETRY_DELAY = 50e-6


class CommitStalled(RuntimeError):
    """An operation exceeded the resubmission cap — indicates a logic bug,
    since under the namespace conventions every operation eventually
    becomes committable."""


@dataclass
class OpMessage:
    """One queued metadata mutation (paper: path + op info + timestamp)."""

    op: str                      # create | mkdir | rm
    path: str
    mode: int = 0o644
    uid: int = 1000
    gid: int = 1000
    timestamp: float = 0.0
    epoch: int = 0
    client_id: int = -1
    retries: int = 0
    #: Times this op was re-queued after a transient transport failure
    #: (MDS down mid-commit); distinct from ``retries`` which counts
    #: namespace-convention rejections.
    replays: int = 0
    #: Generation tag: the provisional ino of the cache record this
    #: operation belongs to.  A name can be created, removed, and
    #: recreated; post-commit cache bookkeeping must only touch its own
    #: generation, or a late rm commit would delete the *new* file's
    #: record (and a late create commit would mark it committed).
    gen_ino: int = -1
    #: Span-context ids carried across the queue (observability only).
    #: The client opens a ``commit_queue`` span at publish; the commit
    #: process closes it at commit/discard/coalesce and parents its own
    #: DFS/MDS spans under it.  -1 when tracing is off.
    op_id: int = -1
    span_id: int = -1

    def __post_init__(self) -> None:
        if self.op not in DFS_METHOD:
            raise ValueError(f"only independent ops ride the queue, got"
                             f" {self.op!r}")


@dataclass
class BarrierMessage:
    """Barrier marker: 'everything this client did in `epoch` is queued'."""

    epoch: int
    node_id: int
    #: Publish instant.  Stamped like OpMessage.timestamp so a queue's
    #: head message always lower-bounds the age of its whole backlog
    #: (publish stamps are monotone) — the ``commit.stall_age`` gauge
    #: keys off that bound.
    timestamp: float = 0.0


class CommitProcess:
    """Per-node subscriber that applies queued operations to the DFS."""

    MAX_RETRIES = 10_000

    def __init__(self, region, node, dfs_client):
        self.region = region
        self.node = node
        self.env = region.env
        self.costs = region.cluster.costs
        self.queue = region.queues.route(node.node_id)
        self.dfs_client = dfs_client
        # Join at the region's current epoch: a process added by elastic
        # growth (after quiesce) must not wait for barrier epochs that
        # completed before it existed.
        self.current_epoch = region.client_epoch
        self._barrier_counts: Dict[int, int] = {}
        self._pending: Deque[OpMessage] = deque()      # current-epoch retries
        self._future: Dict[int, List[OpMessage]] = {}  # epoch -> held ops
        # Batched draining (§III.E stays intact: barrier messages cut
        # batches, resubmission and the discard rule are per-op).
        self.batch_size = max(1, region.config.commit_batch_size)
        self.coalesce_enabled = region.config.commit_coalesce
        # stats
        self.committed = 0
        self.discarded = 0
        self.resubmissions = 0
        self.coalesced = 0
        self.barriers_passed = 0
        self.replays = 0
        self.aborts = 0
        self._process = None
        #: Op messages of the drain in progress, kept whole until the
        #: drain returns: ``idle`` and the oldest-outstanding stamp must
        #: see every one of them as outstanding, settled or not.
        self._drain: List[OpMessage] = []
        #: The ops of ``_drain`` with no outcome yet, by ``id`` (an
        #: ``OpMessage`` compares by fields and is unhashable).  On a
        #: crash exactly these, plus ``_pending``/``_future``, are lost.
        self._unsettled: Dict[int, OpMessage] = {}
        #: Set by failure injection; the interrupt that actually stops the
        #: loop is delivered on the next simulation step, so recovery code
        #: keys off this flag rather than the process's alive state.
        self.killed = False
        self.region.commit_processes.append(self)

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Spawn the commit loop as a DES process; returns the Process."""
        self._process = self.env.process(
            self.run(), label=f"commit:{self.region.name}:{self.node.name}")
        return self._process

    @property
    def idle(self) -> bool:
        """No queued, held, retrying, or in-flight work."""
        return (len(self.queue) == 0 and not self._pending
                and not any(self._future.values()) and not self._drain)

    @property
    def alive(self) -> bool:
        """True while the commit loop's DES process is running."""
        return self._process is not None and self._process.is_alive

    @property
    def dead(self) -> bool:
        """Crashed and not (yet) restarted.

        A dead process will never drain its queue again — messages that
        land there after the crash (barrier broadcasts, racing publishes)
        sit until :func:`repro.core.failure.recover_node` restarts the
        loop.  Quiescing must skip such processes or it waits forever on
        work that recovery, not draining, is responsible for.  A loop
        that exited *cleanly* (queue closed and drained) is not dead —
        it is simply finished, and trivially idle.
        """
        if self.killed:
            return True
        return (self._process is not None and not self._process.is_alive
                and not self.queue.closed)

    def abort(self, reason: str = "abort") -> List[OpMessage]:
        """Drop all unresolved work and stop the loop; return the lost ops.

        This is the crash path (§III.G): in-flight, retrying, and
        held-for-future-epoch operations are destroyed, the commit loop
        is interrupted, and the ops that were lost are returned so
        failure injection can account for them exactly.  An op
        interrupted *after* it settled (mid post-commit bookkeeping) is
        counted under its outcome, not here.  The loop's wait (queue
        get, barrier arrival, MDS worker slot, ...) is cancelled first so
        no waiter registration or granted-but-unconsumed resource slot
        leaks past the crash.
        """
        lost = [*self._unsettled.values(), *self._waiting_ops()]
        self._drop_unresolved()
        self.aborts += 1
        if self.region.hub.enabled:
            self.region.hub.count("commit.aborts")
        if self.alive:
            self.killed = True
            cancel_wait(self._process.waiting_on)
            self._process.interrupt(reason)
        return lost

    def _waiting_ops(self) -> Generator[OpMessage, None, None]:
        """Ops retrying in this epoch or held for a future one."""
        yield from self._pending
        for held in self._future.values():
            yield from held

    def oldest_outstanding_timestamp(self) -> Optional[float]:
        """Oldest publish timestamp among this process's unresolved ops
        (retrying, held for a future epoch, or mid-commit); None if none."""
        return min([op.timestamp for ops in (self._drain, self._waiting_ops())
                    for op in ops], default=None)

    # -- the commit window ---------------------------------------------------
    def _settle(self, op: OpMessage) -> None:
        """The op has an outcome: resolved inside its segment (committed,
        discarded, coalesced) or handed to ``_pending`` (resubmit, replay)
        or ``_future``.  A crash from here on counts it there, never again
        as lost in flight — and settling it twice raises."""
        del self._unsettled[id(op)]

    def _resolve(self, op: OpMessage) -> None:
        """The op left the pipeline (committed/discarded/coalesced)."""
        self._settle(op)
        if self.region.hub.enabled:
            self.region.note_op_resolved(op.path)

    def _drop_unresolved(self) -> None:
        """Crash path: forget all retrying, held and in-flight state (the
        caller of ``abort`` reconciles the ops it returns).  Runs at
        ``abort`` and again when the interrupt lands in ``run``."""
        self._drain.clear()
        self._unsettled.clear()
        self._pending.clear()
        self._future.clear()
        self._barrier_counts.clear()

    # -- main loop -----------------------------------------------------------
    def run(self) -> Generator[Event, Any, None]:
        """Commit loop; dies cleanly (dropping state) on node failure."""
        try:
            yield from self._loop()
        except Interrupt:
            # Node crash (§III.G): whatever was queued or in flight here is
            # lost; isolation means only this region is affected.
            self._drop_unresolved()

    def _loop(self) -> Generator[Event, Any, None]:
        closing = False
        while True:
            # Backstop for a swallowed kill: if abort() flagged this loop
            # dead but its Interrupt got absorbed downstream (e.g. caught
            # mid-RPC and replaced by a network error), stop here rather
            # than run on as a zombie corrupting in-flight accounting.
            if self.killed:
                raise Interrupt("aborted")
            # Barrier: local epoch fully drained -> rendezvous region-wide.
            if (self._barrier_counts.get(self.current_epoch, 0)
                    >= self.region.expected_barrier_messages(
                        self.node.node_id)
                    and not self._pending):
                epoch = self.current_epoch
                wait_started = self.env.now
                gen = yield self.region.commit_barrier.arrive()
                # All commit processes have drained this epoch.
                self.region.signal_barrier_complete(gen)
                self._barrier_counts.pop(epoch, None)
                self.current_epoch += 1
                self.barriers_passed += 1
                if self.region.tracer.enabled:
                    self.region.tracer.emit(self.env.now,
                                            f"commit:{self.node.name}",
                                            "barrier", f"epoch {epoch} done")
                hub = self.region.hub
                if hub.enabled:
                    # Stall between local drain and region-wide release.
                    hub.observe("commit.barrier_wait",
                                self.env.now - wait_started)
                    hub.count("commit.barriers_passed")
                # Release operations held for the new epoch; each stays in
                # ``_future`` until its own drain, so a crash mid-release
                # still finds the rest.
                released = self._future.get(self.current_epoch, [])
                while released:
                    yield from self._dispatch_batch([released.pop(0)])
                self._future.pop(self.current_epoch, None)
                continue

            if len(self.queue) > 0 or (not self._pending and not closing):
                try:
                    msg = yield self.queue.get()
                except QueueClosed:
                    closing = True
                    continue
                batch = [msg] + self.queue.get_batch(self.batch_size - 1)
                # Observed here, not in _dispatch_batch: retries and epoch
                # releases reuse the dispatch but are not queue drains.
                if self.region.hub.enabled:
                    self.region.hub.observe("commit.batch_size", len(batch))
                yield from self._dispatch_batch(batch)
            elif self._pending:
                # Nothing new; give blocked dependencies a beat, then retry.
                yield RETRY_DELAY
                yield from self._dispatch_batch([self._pending.popleft()])
            else:
                # closing and fully drained
                return

    def _dispatch_batch(self, msgs: List[Any]) -> Generator[Event, Any,
                                                            None]:
        """Resolve one wakeup's worth of drained messages (a pending retry
        or a future-epoch release is a drain of one).

        The queue-pop overhead is paid once for the whole drain — that is
        the amortization batching buys on the queue side.  Barrier
        messages cut the drain into segments: operations on either side of
        a barrier marker never share a coalescing window or an MDS batch,
        preserving the §III.E epoch discipline.

        Every drained op message counts as in-flight (and holds down the
        oldest-outstanding stamp) from the moment it leaves the queue
        until the drain returns — ``Region.quiesce`` must never observe
        a lull while drained work sits in a local variable here.
        """
        self._drain = [m for m in msgs if not isinstance(m, BarrierMessage)]
        self._unsettled = {id(op): op for op in self._drain}
        try:
            if self.costs.commit_queue_pop > 0:
                yield self.costs.commit_queue_pop
            segment: List[OpMessage] = []
            for msg in msgs:
                if isinstance(msg, BarrierMessage):
                    yield from self._commit_segment(segment)
                    segment = []
                    self._barrier_counts[msg.epoch] = \
                        self._barrier_counts.get(msg.epoch, 0) + 1
                elif msg.epoch > self.current_epoch:
                    self._future.setdefault(msg.epoch, []).append(msg)
                    self._settle(msg)
                else:
                    segment.append(msg)
            yield from self._commit_segment(segment)
            if self._unsettled:
                raise RuntimeError(f"drain ended with {len(self._unsettled)}"
                                   " ops unsettled")
        finally:
            self._drain.clear()

    def _coalesce(self, ops: List[OpMessage]) -> Generator[Event, Any,
                                                           List[OpMessage]]:
        """Cancel (create|mkdir, same-generation rm) pairs inside a batch.

        Neither side of a cancelled pair ever reaches the MDS; the rm's
        post-commit cache bookkeeping (dropping this generation's
        tombstone record) still runs, exactly as its commit would have.
        Generation tags make this safe: a pair only cancels when the cache
        still holds *this* generation uncommitted — if the create already
        materialized out of band (small-file threshold crossing) the DFS
        holds the file and the rm must really run.
        """
        alive: List[Optional[OpMessage]] = list(ops)
        creations: Dict[Tuple[str, int], int] = {}
        for i, op in enumerate(ops):
            if op.op in ("create", "mkdir"):
                creations[(op.path, op.gen_ino)] = i
            elif op.op == "rm":
                j = creations.get((op.path, op.gen_ino))
                if j is None or alive[j] is None:
                    continue
                record = self.region.cache.peek(op.path)
                if record is None or record.get("ino") != op.gen_ino \
                        or record.get("committed"):
                    continue
                self._close_queue_span(ops[j])
                self._close_queue_span(op)
                alive[i] = None
                alive[j] = None
                del creations[(op.path, op.gen_ino)]
                self.coalesced += 2
                self._resolve(ops[j])
                self._resolve(op)
                if self.region.tracer.enabled:
                    self.region.tracer.emit(
                        self.env.now, f"commit:{self.node.name}",
                        "coalesce", f"create+rm {op.path}")
                if self.region.hub.enabled:
                    self.region.hub.count("commit.coalesced", 2)
                try:
                    yield from self.region.cache.delete_if_ino(
                        self.node, op.path, op.gen_ino)
                except NodeDownError:
                    if self.region.hub.enabled:
                        self.region.hub.count("commit.postcommit_skipped")
        return [op for op in alive if op is not None]

    def _commit_segment(self, ops: List[OpMessage]) -> Generator[Event, Any,
                                                                 None]:
        """Commit one barrier-free run of ops, sharing MDS round trips per
        parent directory.

        After coalescing, the §III.D.1 discard rule is applied per-op;
        survivors are grouped by parent so N same-directory operations pay
        one ancestor traversal and one (discounted) MDS request.  Each op's
        outcome is resolved independently — rejected ops resubmit, whether
        they travelled alone or in a group.
        """
        if self.coalesce_enabled and len(ops) > 1:
            ops = yield from self._coalesce(ops)
        groups: Dict[str, List[Tuple[OpMessage, int]]] = {}
        for op in ops:
            # Only ops older than the removal are discarded; later
            # re-creations of the same names are legitimate work.
            if self.region.inside_removed_subtree(op.path, op.timestamp):
                self._discard(op)
                continue
            groups.setdefault(parent_of(op.path), []).append(
                (op, self._committed_mode(op)))
        for group in groups.values():
            if len(group) == 1:
                op, mode = group[0]
                yield from self._attempt_single(op, mode)
                continue
            try:
                results = yield from self.dfs_client.commit_batch(
                    [self._dfs_call(op, mode) for op, mode in group])
            except NodeDownError:
                for op, mode in group:
                    self._replay(op)
                continue
            except (FileNotFound, NotADirectory) as exc:
                # The shared ancestor traversal failed (parent creation
                # pending in some queue, or subtree removed): every op in
                # the group fails the same way each would have alone.
                for op, mode in group:
                    yield from self._handle_commit_failure(op, mode, exc)
                continue
            for (op, mode), (status, detail) in zip(group, results):
                if status == "ok":
                    yield from self._commit_success(op, mode)
                else:
                    yield from self._handle_commit_failure(op, mode, detail)

    # -- committing one operation ------------------------------------------------
    def _dfs_call(self, op: OpMessage,
                  mode: int) -> Tuple[str, str, Dict[str, Any]]:
        """``(DFS method, path, kwargs)`` that commits ``op`` — one
        ``commit_batch`` payload entry, or one direct client call.

        A generation-tagged op carries an idempotency token:
        ``(region, gen_ino, op)`` uniquely names one generation's mutation,
        so replaying it after a lost response must not re-apply.  Untagged
        ops get no dedup — they also never ride the replay path, which is
        the only at-least-once producer.
        """
        kwargs: Dict[str, Any] = {} if op.op == "rm" else {"mode": mode}
        if op.gen_ino != -1:
            kwargs["token"] = (self.region.name, op.gen_ino, op.op)
        return DFS_METHOD[op.op], op.path, kwargs

    def _replay(self, op: OpMessage) -> None:
        """Re-queue an op whose MDS round trip failed in transport.

        Transport loss (MDS crash mid-commit, partition) is transient and
        unbounded — exempt from the MAX_RETRIES resubmission cap, which
        exists to catch namespace-convention livelocks.  The op's commit
        token makes the retry idempotent if the lost RPC actually applied.
        """
        op.replays += 1
        self.replays += 1
        self._settle(op)
        if self.region.hub.enabled:
            self.region.hub.count("commit.replays")
        self._pending.append(op)

    def _committed_mode(self, op: OpMessage) -> int:
        """The mode this op should commit with.

        The mode may have changed since the op was queued (chmod on a
        not-yet-committed entry); the cache record of this generation is
        authoritative.
        """
        mode = op.mode
        if op.op in ("mkdir", "create"):
            record = self.region.cache.peek(op.path)
            if record is not None and record.get("ino") == op.gen_ino:
                mode = record.get("mode", mode)
        return mode

    def _attempt_single(self, op: OpMessage,
                        mode: int) -> Generator[Event, Any, None]:
        tracer = self.region.tracer
        ctx = proc = None
        if tracer.enabled and op.span_id >= 0:
            # Adopt the op's commit_queue span so the DFS/MDS spans this
            # attempt generates nest under it in the op's span tree.
            ctx = tracer.adopt_context(op.op_id, op.span_id)
            proc = self.env.active_process
            tracer.push_context(proc, ctx)
        try:
            method, path, kwargs = self._dfs_call(op, mode)
            try:
                yield from getattr(self.dfs_client, method)(path, **kwargs)
            except (FileExists, FileNotFound, NotADirectory) as exc:
                yield from self._handle_commit_failure(op, mode, exc)
            except NodeDownError:
                # MDS (or the wire to it) went down mid-commit: the op may
                # or may not have applied.  Replay with the same token —
                # the MDS dedup memory resolves the ambiguity.
                self._replay(op)
            else:
                yield from self._commit_success(op, mode)
        finally:
            if ctx is not None:
                tracer.pop_context(proc, ctx)

    def _handle_commit_failure(self, op: OpMessage, mode: int,
                               exc: Exception) -> Generator[Event, Any, None]:
        """Resolve a DFS rejection: committed-elsewhere, orphan, or retry."""
        if isinstance(exc, FileExists):
            # The name is occupied.  Either *this generation* was
            # materialized out of band (small-file threshold crossing
            # creates directly and flips the committed flag — check the
            # cache, matching on the generation tag), or an older same-name
            # file awaits a pending rm in another queue — resubmit until
            # that rm lands (plain EEXIST-as-success would commit the
            # recreate *before* the remove and converge to the wrong
            # namespace).
            record = self.region.cache.peek(op.path)
            if (record is not None and record.get("committed")
                    and record.get("ino") == op.gen_ino):
                # this generation is on the DFS; count it committed
                yield from self._commit_success(op, mode)
            else:
                self._resubmit(op)
            return
        if isinstance(exc, (FileNotFound, NotADirectory)):
            # Namespace conventions not yet satisfied — usually the parent
            # creation is pending in some queue: resubmit (§III.E).  But a
            # creation under a removed subtree whose parent has no cache
            # record is an orphan: nothing queued anywhere can ever create
            # its parent, so retrying is a livelock — discard it (the
            # §III.D.1 discard rule extended to post-removal stragglers).
            # So is an rm whose generation's create a crash destroyed.
            if ((op.op == "rm" and op.gen_ino in self.region.lost_creations)
                    or (op.op != "rm"
                        and self.region.inside_removed_subtree(op.path)
                        and self.region.cache.peek(parent_of(op.path))
                        is None)):
                self._discard(op, orphan=True)
                return
            self._resubmit(op)
            return
        raise exc  # not a namespace-convention rejection: a real bug

    def _close_queue_span(self, op: OpMessage) -> None:
        """Close the op's commit_queue span (opened at client publish)."""
        tracer = self.region.tracer
        if tracer.enabled and op.span_id >= 0:
            ctx = tracer.adopt_context(op.op_id, op.span_id)
            tracer.span_end(self.env.now, f"commitq:{self.region.name}", ctx)

    def _commit_success(self, op: OpMessage,
                        mode: int) -> Generator[Event, Any, None]:
        self.committed += 1
        self._close_queue_span(op)
        if self.region.tracer.enabled:
            self.region.tracer.emit(
                self.env.now, f"commit:{self.node.name}", "commit",
                f"{op.op} {op.path}",
                op_id=op.op_id if op.op_id >= 0 else None)
        hub = self.region.hub
        self._resolve(op)
        if hub.enabled:
            # Publish→commit latency: OpMessage.timestamp is stamped when
            # the client pushes the message into its commit queue.
            hub.observe_commit(op.op, self.env.now - op.timestamp)
            hub.observe_visibility("committed", op.op,
                                   self.env.now - op.timestamp)
            if op.retries > 0:
                hub.observe("commit.retries_to_commit", op.retries)
        try:
            yield from self._after_commit(op, committed_mode=mode)
        except NodeDownError:
            # The op is committed on the DFS; only the cache-side
            # bookkeeping RPC was lost (cache node down or partitioned).
            # Replaying would double-count the commit via token dedup, so
            # just note the skip — the record reconverges via eviction or
            # the next mutation of the name.
            if hub.enabled:
                hub.count("commit.postcommit_skipped")
        else:
            # Globally visible: the primary (cache) copy now agrees with
            # the committed DFS copy — later reads anywhere see the commit.
            if hub.enabled:
                hub.observe_visibility("global", op.op,
                                       self.env.now - op.timestamp)

    def _discard(self, op: OpMessage, orphan: bool = False) -> None:
        self.discarded += 1
        self._resolve(op)
        self._close_queue_span(op)
        if self.region.tracer.enabled:
            label = f"{op.op} {op.path}"
            self.region.tracer.emit(
                self.env.now, f"commit:{self.node.name}", "discard",
                f"orphan {label}" if orphan else label,
                op_id=op.op_id if op.op_id >= 0 else None)
        if self.region.hub.enabled:
            self.region.hub.count("commit.discarded")

    def _resubmit(self, op: OpMessage) -> None:
        op.retries += 1
        self.resubmissions += 1
        self._settle(op)
        if self.region.hub.enabled:
            self.region.hub.count("commit.resubmissions")
        if op.retries > self.MAX_RETRIES:
            raise CommitStalled(f"{op.op} {op.path} exceeded"
                                f" {self.MAX_RETRIES} resubmissions")
        self._pending.append(op)

    def _after_commit(self, op: OpMessage,
                      committed_mode: int = -1) -> Generator[Event, Any,
                                                             None]:
        """Post-commit bookkeeping on the cached (primary) copy.

        All updates are generation-guarded: if the cache record now
        belongs to a newer generation of the same name (the application
        removed and recreated it while this commit was in flight), leave
        it alone — the newer generation's own operations manage it.
        """
        cache = self.region.cache
        if op.op == "rm":
            # "removed files are marked and their cached metadata are
            # deleted after the operations are committed."  Conditional on
            # the generation: never delete a recreated entry's record.
            yield from cache.delete_if_ino(self.node, op.path, op.gen_ino)
            return
        # create/mkdir: flip the committed flag; write back fsynced inline
        # data that had been parked in a cache file (§III.D.2); reconcile a
        # mode changed by chmod while the create was in flight.
        shadow_size = 0
        mode_drift = None

        def mark_committed(record):
            nonlocal shadow_size, mode_drift
            if record.get("ino") != op.gen_ino:
                return None  # newer generation owns this record now
            record["committed"] = True
            if record.get("shadow") and record.get("inline_data") is not None:
                shadow_size = record["size"]
                record["shadow"] = False
            if committed_mode >= 0 and record["mode"] != committed_mode:
                mode_drift = record["mode"]
            return record

        updated = yield from cache.update(self.node, op.path, mark_committed)
        if updated is not None and shadow_size > 0:
            yield from self.dfs_client.write(op.path, 0, shadow_size)
        if updated is not None and mode_drift is not None:
            yield from self.dfs_client.setattr(op.path, mode=mode_drift)
