"""The Pacon client: the application-facing file interface (§III.B/D).

Each application process holds one :class:`PaconClient`.  Operations under
the process's consistent region are served by the distributed metadata
cache and committed to the DFS asynchronously; operations outside every
known region are redirected, unmodified, to the underlying DFS client.

Operation semantics follow Table I of the paper:

=========== ================= ====================== ======================
op          cache operation   comm type with DFS     commit type
=========== ================= ====================== ======================
create      put               async                  independent
mkdir       put               async                  independent
rm          update & delete   async                  independent
getattr     get               none / sync (on miss)  none / indep. (miss)
rmdir       delete            sync                   barrier
readdir     (none)            sync                   barrier
=========== ================= ====================== ======================

Every method is a DES generator; wrap with
:func:`repro.sim.core.run_sync` (or use :class:`repro.core.deploy.PaconFS`)
for synchronous use.  Each call records the Table-I classification it
actually exercised in ``last_class`` (``last_trace`` is the same thing as
a dict) — the Table I conformance tests and bench read that.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.cache import new_record
from repro.core.commit import RETRY_DELAY, OpMessage
from repro.core.region import ConsistentRegion, ReadOnlyRegion
from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.dfs.inode import FileType, Inode
from repro.dfs.namespace import normalize_path, parent_of
from repro.kvstore.memkv import CasMismatch, KeyExists
from repro.sim.core import Event
from repro.sim.rng import stable_hash

__all__ = ["PaconClient"]


def _traced(fn):
    """Wrap a client operation generator in an observability span.

    When neither the region's tracer nor its metrics hub is enabled (the
    default ``NULL_TRACER``/``NULL_HUB`` pair), the original generator is
    returned untouched — the fast path costs two attribute reads and no
    simulated time.  Otherwise the generator is driven through
    :meth:`PaconClient._spanned`, which emits paired ``op.start``/
    ``op.end`` events (closing the span even when the op raises) and feeds
    the per-op-type latency histogram.
    """
    op = fn.__name__

    @functools.wraps(fn)
    def wrapper(self, path, *args, **kwargs):
        gen = fn(self, path, *args, **kwargs)
        region = self.region
        if not (region.tracer.enabled or region.hub.enabled):
            return gen
        return self._spanned(op, path, gen)

    return wrapper


class PaconClient:
    """Per-process handle bound to a node inside a consistent region."""

    def __init__(self, region: ConsistentRegion, node):
        self.region = region
        self.node = node
        self.env = region.env
        self.costs = region.cluster.costs
        self.config = region.config
        self.uid = region.config.uid
        self.gid = region.config.gid
        self.client_id = region.register_client(node)
        region.clients.append(self)
        self.actor_name = f"client:{region.name}#{self.client_id}"
        # Redirect path: an ordinary DFS client for out-of-region requests
        # and for Pacon's own synchronous DFS calls.
        self.dfs_client = region.dfs.client(node, uid=self.uid, gid=self.gid)
        #: Table-I classification of the current/most recent op, kept as a
        #: cheap tuple so spans can tag op.end events with it.
        self.last_class: Optional[Tuple[str, str, str]] = None
        self._last_op: Optional[str] = None
        #: Ablation switch: emulate the traditional layer-by-layer
        #: permission check *inside the distributed cache* (one KV get per
        #: path level) instead of batch permission management.  Used by the
        #: batch-permissions ablation bench; always False in normal use.
        self.hierarchical_permissions = False
        # Parent directories this client has already verified (created or
        # checked).  Saves the per-create parent KV get on the hot path;
        # invalidated on this client's own rmdir/rm.  Correctness does not
        # depend on it: a stale positive only defers the existence error to
        # the commit path, which resubmits/discards per §III.E.
        self._parent_memo: set = set()
        # stats
        self.ops = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.redirects = 0

    # ------------------------------------------------------------------ utils
    def _note(self, op: str, cache_op: str, comm: str, commit: str) -> None:
        self.ops += 1
        self._last_op = op
        self.last_class = (cache_op, comm, commit)

    @property
    def last_trace(self) -> Optional[Dict[str, str]]:
        """``last_class`` as the Table-I row dict (plus the op name)."""
        if self.last_class is None:
            return None
        cache_op, comm, commit = self.last_class
        return {"op": self._last_op, "cache_op": cache_op, "comm": comm,
                "commit": commit}

    def _spanned(self, op: str, path: str,
                 inner: Generator[Event, Any, Any],
                 ) -> Generator[Event, Any, Any]:
        """Drive ``inner`` inside an op.start/op.end span (see _traced).

        When the tracer is on, a root :class:`SpanContext` is pushed onto
        the driving DES process for the duration of the op — child stages
        (cache RPCs, network transfers, MDS requests) find it there and
        emit their spans as children, forming the op's causal span tree.
        """
        tracer = self.region.tracer
        hub = self.region.hub
        actor = self.actor_name
        ctx = proc = None
        op_id = None
        t0 = self.env.now
        self.last_class = None
        if tracer.enabled:
            ctx = tracer.root_context()
            op_id = ctx.op_id
            proc = self.env.active_process
            tracer.push_context(proc, ctx)
            tracer.emit(t0, actor, "op.start", f"{op} {path}", op_id,
                        span_id=ctx.span_id)
        outcome = "ok"
        try:
            result = yield from inner
            return result
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            t1 = self.env.now
            if ctx is not None:
                tracer.pop_context(proc, ctx)
                detail = f"{op} {path} [{outcome}]"
                if self.last_class is not None:
                    cache_op, comm, commit = self.last_class
                    detail += (f" cache={cache_op} comm={comm}"
                               f" commit={commit}")
                tracer.emit(t1, actor, "op.end", detail, op_id,
                            span_id=ctx.span_id)
            if hub.enabled:
                hub.observe_op(op, t1 - t0, ok=outcome == "ok")

    def _stage_start(self, category: str, name: str = ""):
        """Open a child stage span under the current op; None when off."""
        tracer = self.region.tracer
        if not tracer.enabled:
            return None
        return tracer.open_child(self.env.active_process, self.env.now,
                                 self.actor_name, category, name)

    def _stage_end(self, ctx) -> None:
        if ctx is not None:
            self.region.tracer.span_end(self.env.now, self.actor_name, ctx)

    def _enter(self, op: str, path: str, write: bool = False,
               ) -> Generator[Event, Any,
                              Tuple[str, Optional[ConsistentRegion]]]:
        """The prologue every single-path operation shares.

        Normalizes and routes ``path``.  Outside every known region the op
        is a redirect: it is counted and classified here, and ``(path,
        None)`` tells the caller to hand it to the DFS client unmodified.
        Inside one, a ``write`` into a merged region is refused at no
        simulated cost; otherwise the client CPU cost is charged and the
        batch permission check runs against the *covering* region.
        """
        path = normalize_path(path)
        target = self._route(path)
        if target is None:
            self.redirects += 1
            self._note(op, "none", "sync", "none")
            return path, None
        if write and target is not self.region:
            raise ReadOnlyRegion(
                f"{path} belongs to merged region {target.name};"
                " merged regions are read-only (§III.D.4)")
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        yield from self._check_permission(op, path, target)
        return path, target

    def _check_permission(self, op: str, path: str,
                          region: ConsistentRegion,
                          ) -> Generator[Event, Any, None]:
        """Batch permission check (§III.C) with its (tiny) CPU cost.

        Checks against the *covering* region's permission information —
        for merged regions that is the information exchanged during the
        merge (§III.D.4 step 1).  ``path`` is already normalized.
        """
        if path == region.workspace:
            return  # region-root access was granted at region creation
        if self.hierarchical_permissions:
            yield from self._hierarchical_walk(path, region)
        receipt = region.permissions.check_op(op, path, self.uid, self.gid)
        cost = (self.costs.permission_check_batch * receipt.normal_checks +
                self.costs.permission_check_special_per_item *
                receipt.special_items_scanned)
        if cost > 0:
            yield cost
        if not receipt.allowed:
            raise PermissionDenied(path, receipt.reason)

    def _hierarchical_walk(self, path: str,
                           region: ConsistentRegion) -> Generator[
                               Event, Any, None]:
        """Ablation: check each ancestor's cached record level by level.

        One KV get per path component between the workspace and the
        target — the traversal cost batch permission management removes.
        """
        ancestors = []
        current = parent_of(path)
        while current != region.workspace and \
                current.startswith(region.workspace):
            ancestors.append(current)
            current = parent_of(current)
        for ancestor in reversed(ancestors):
            yield from region.cache.get(self.node, ancestor)

    def _route(self, path: str) -> Optional[ConsistentRegion]:
        return self.region.covering_region(path)

    def _barrier(self, region: ConsistentRegion) -> Generator[Event, Any,
                                                              None]:
        """Barrier commit (§III.E dependent type): return once every
        operation queued in ``region`` before now is on the DFS."""
        epoch, done = region.trigger_barrier()
        ctx = self._stage_start("barrier", f"epoch {epoch}")
        yield done
        self._stage_end(ctx)

    def _forget_subtree(self, path: str) -> None:
        """Drop ``path`` and everything under it from the parent memo."""
        prefix = path + "/"
        self._parent_memo = {p for p in self._parent_memo
                             if p != path and not p.startswith(prefix)}

    def _publish(self, op: str, path: str, mode: int,
                 gen_ino: int = -1) -> Generator[Event, Any, None]:
        """Push an operation message into the local commit queue.

        With ``config.commit_queue_capacity`` set, a full queue stalls the
        *client* until the commit process drains below the bound — the
        backpressure is a visible, metered delay instead of unbounded
        buffering.  Barrier control messages bypass this path entirely
        (``ConsistentRegion.trigger_barrier`` publishes directly), so
        backpressure can never deadlock a barrier rendezvous.
        """
        queue = self.region.queues.route(self.node.node_id)
        capacity = self.region.config.commit_queue_capacity
        if capacity is not None and len(queue) >= capacity:
            stall_started = self.env.now
            stall_ctx = self._stage_start("publish_stall", f"{op} {path}")
            while len(queue) >= capacity:
                yield RETRY_DELAY
            self._stage_end(stall_ctx)
            if self.region.hub.enabled:
                stalled = self.env.now - stall_started
                self.region.hub.observe("commit.publish_stall", stalled)
                self.region.hub.count("commit.publish_stalls")
                self.region.hub.timeline.record(
                    stall_started, "commit", "backpressure.stall",
                    queue.name, detail=f"{op} {path}", duration=stalled)
        if self.costs.commit_queue_push > 0:
            yield self.costs.commit_queue_push
        msg = OpMessage(op=op, path=path, mode=mode, uid=self.uid,
                        gid=self.gid, timestamp=self.env.now,
                        epoch=self.region.client_epoch,
                        client_id=self.client_id, gen_ino=gen_ino)
        tracer = self.region.tracer
        if tracer.enabled:
            # Commit-queue residency span: opened at publish, closed by
            # the commit process at commit/discard/coalesce.  Not an
            # attribution bucket — the async commit is off the client
            # critical path by design (that is the paper's claim) —
            # but it shows queue+commit time in the tree/Chrome views.
            cctx = tracer.open_child(
                self.env.active_process, self.env.now,
                f"commitq:{self.region.name}", "commit_queue",
                f"{op} {path}")
            if cctx is not None:
                msg.op_id = cctx.op_id
                msg.span_id = cctx.span_id
        queue.publish(msg)
        self.region.ops_submitted += 1
        if self.region.hub.enabled:
            self.region.hub.count("commit.published")
            # Version-lag ledger: the MDS copy of ``path`` now lags the
            # cache by one more mutation, until the commit process
            # resolves this message (commit/discard/coalesce) or
            # ``fail_node`` loses it.
            self.region.note_op_pending(path)

    def _parent_check(self, path: str) -> Generator[Event, Any, None]:
        """Verify the parent directory exists (cache first, DFS on miss).

        Applications that guarantee creation order can disable this
        (``config.parent_check = False``), as the paper allows.
        """
        parent = parent_of(path)
        if parent == self.region.workspace:
            return  # the workspace root always exists (created at init)
        if parent in self._parent_memo:
            self._observe_read("private", "lookup", parent)
            return  # verified earlier by this client
        record = yield from self.region.cache.get(self.node, parent)
        if record is not None:
            self.cache_hits += 1
            if record.get("deleted"):
                raise FileNotFound(parent)
            if record["ftype"] != FileType.DIRECTORY.value:
                raise NotADirectory(parent)
            self._observe_read("shared", "lookup", parent, record)
            self._parent_memo.add(parent)
            return
        self.cache_misses += 1
        # Not cached: it may exist on the DFS (§III.C) — check synchronously
        # and load it into the cache for next time.
        try:
            inode = yield from self.dfs_client.getattr(parent)
        except FileNotFound:
            raise FileNotFound(parent)
        if not inode.is_dir:
            raise NotADirectory(parent)
        self._observe_read("mds", "lookup", parent)
        record = new_record(inode.to_record(), committed=True)
        yield from self._cache_fill(parent, record)
        self._parent_memo.add(parent)

    def _observe_read(self, tier: str, op: str, path: str,
                      record: Optional[Dict] = None,
                      region: Optional[ConsistentRegion] = None) -> None:
        """Record staleness-at-read for one metadata read (hub-gated).

        ``tier`` is where the read was served: ``private`` (this client's
        parent memo), ``shared`` (the region's distributed cache), or
        ``mds`` (DFS fallthrough — authoritative by definition).  Age is
        how long the MDS copy has lagged the served value (time since the
        served record's last un-committed mutation); lag is the number of
        published-but-unresolved mutations for the path.  Zero-cost when
        no hub is attached: one ``enabled`` read, nothing allocated.
        """
        hub = self.region.hub
        if not hub.enabled:
            return
        region = region or self.region
        if tier == "mds" or record is None:
            # Served authoritatively (or from a bare existence memo with
            # no record to compare): age 0 by definition; the memo case
            # still reports the path's pending-mutation lag.
            lag = 0 if tier == "mds" else region.pending_mutations(path)
            hub.observe_staleness(tier, op, 0.0, lag)
            return
        lag = region.pending_mutations(path)
        if record.get("committed") and lag == 0:
            age = 0.0
            # A committed record whose authoritative copy is gone means
            # the backup lost it (crash past the commit): count, don't age.
            namespace = getattr(region.dfs, "namespace", None)
            if namespace is not None and \
                    namespace.commit_stamp(path) is None:
                hub.count("consistency.orphan_reads")
        else:
            # The cache (primary copy) is ahead of the MDS: the backup
            # has lagged since the record's last mutation.
            age = self.env.now - record.get("mtime", self.env.now)
        hub.observe_staleness(tier, op, age, lag)

    def _cache_fill(self, path: str,
                    record: Dict) -> Generator[Event, Any, None]:
        """Best-effort insert of a DFS-loaded record (races are benign)."""
        try:
            yield from self.region.cache.add(self.node, path, record)
        except KeyExists:
            pass

    # ------------------------------------------------------- write operations
    @_traced
    def mkdir(self, path: str,
              mode: Optional[int] = None) -> Generator[Event, Any, Inode]:
        inode = yield from self._create_entry("mkdir", path, mode,
                                              FileType.DIRECTORY)
        return inode

    @_traced
    def create(self, path: str,
               mode: Optional[int] = None) -> Generator[Event, Any, Inode]:
        inode = yield from self._create_entry("create", path, mode,
                                              FileType.FILE)
        return inode

    def _create_entry(self, op: str, path: str, mode: Optional[int],
                      ftype: FileType) -> Generator[Event, Any, Inode]:
        path, target = yield from self._enter(op, path, write=True)
        if target is None:
            inode = yield from getattr(self.dfs_client, op)(
                path, **({} if mode is None else {"mode": mode}))
            return inode
        if self.config.parent_check:
            yield from self._parent_check(path)
        if mode is None:
            mode = self.region.permissions.effective(path).mode
        record = new_record({
            "ino": self.region.alloc_provisional_ino(),
            "ftype": ftype.value,
            "mode": mode,
            "uid": self.uid,
            "gid": self.gid,
            "size": 0,
            "ctime": self.env.now,
            "mtime": self.env.now,
            "nlink": 1,
            "inline_data": b"" if ftype is FileType.FILE else None,
        }, committed=False)
        # Sub-operation 1: apply to the distributed cache (primary copy).
        while True:
            try:
                yield from self.region.cache.add(self.node, path, record)
                break
            except KeyExists:
                existing = yield from self.region.cache.gets(self.node, path)
                if existing is None:
                    continue  # deleted between add and gets: retry
                old, token = existing
                if not old.get("deleted"):
                    raise FileExists(path)
                # Recreate over a pending-removal entry: CAS it over.
                try:
                    yield from self.region.cache.cas(self.node, path, record,
                                                     token)
                    break
                except CasMismatch:
                    continue
        # Sub-operation 2: queue the asynchronous, independent commit.
        yield from self._publish(op, path, mode, gen_ino=record["ino"])
        if ftype is FileType.DIRECTORY:
            self._parent_memo.add(path)
        self._note(op, "put", "async", "indep")
        return Inode.from_record(record)

    @_traced
    def rm(self, path: str) -> Generator[Event, Any, None]:
        """Remove a file (Table I: update & delete / async / independent)."""
        path, target = yield from self._enter("rm", path, write=True)
        if target is None:
            yield from self.dfs_client.unlink(path)
            return

        state = {"missing": False, "was_dir": False, "already_deleted": False}

        def mark_deleted(record):
            if record.get("deleted"):
                state["already_deleted"] = True
                return None
            if record["ftype"] == FileType.DIRECTORY.value:
                state["was_dir"] = True
                return None
            record["deleted"] = True
            record["mtime"] = self.env.now
            return record

        updated = yield from self.region.cache.update(self.node, path,
                                                      mark_deleted)
        if state["was_dir"]:
            raise IsADirectory(path)
        if state["already_deleted"]:
            raise FileNotFound(path)
        if updated is None:
            # Cache miss: the file may exist only on the DFS.  Load and
            # mark in one step.
            self.cache_misses += 1
            inode = yield from self.dfs_client.getattr(path)  # may raise
            if inode.is_dir:
                raise IsADirectory(path)
            record = new_record(inode.to_record(), committed=True,
                                deleted=True)
            yield from self._cache_fill(path, record)
            gen_ino = record["ino"]
        else:
            self.cache_hits += 1
            gen_ino = updated["ino"]
        yield from self._publish("rm", path, 0, gen_ino=gen_ino)
        self._note("rm", "update+delete", "async", "indep")

    unlink = rm

    # -------------------------------------------------------- read operations
    @_traced
    def getattr(self, path: str) -> Generator[Event, Any, Inode]:
        path, target = yield from self._enter("getattr", path)
        if target is None:
            inode = yield from self.dfs_client.getattr(path)
            return inode
        record = yield from target.cache.get(self.node, path)
        if record is not None:
            self.cache_hits += 1
            if record.get("deleted"):
                raise FileNotFound(path)
            self._observe_read("shared", "getattr", path, record,
                               region=target)
            self._note("getattr", "get", "none", "none")
            return Inode.from_record(record)
        self.cache_misses += 1
        # Miss: synchronously load from the DFS into the cache (Table I:
        # "sync (miss)", commit "indep. (miss)").
        inode = yield from self.dfs_client.getattr(path)  # may raise ENOENT
        self._observe_read("mds", "getattr", path, region=target)
        if target is self.region:
            record = new_record(inode.to_record(), committed=True)
            yield from self._cache_fill(path, record)
        self._note("getattr", "get", "sync(miss)", "indep(miss)")
        return inode

    stat = getattr

    def exists(self, path: str) -> Generator[Event, Any, bool]:
        try:
            yield from self.getattr(path)
            return True
        except FileNotFound:
            return False

    @_traced
    def readdir(self, path: str) -> Generator[Event, Any, List[str]]:
        """List a directory (Table I: no cache op, sync, barrier).

        Pacon deliberately does *not* assemble listings from the cache
        (that would be a full table scan over the shards); it barriers so
        every queued operation is visible on the DFS, then asks the DFS.
        """
        path, target = yield from self._enter("readdir", path)
        if target is None:
            names = yield from self.dfs_client.readdir(path)
            return names
        yield from self._barrier(target)
        names = yield from self.dfs_client.readdir(path)
        self._note("readdir", "none", "sync", "barrier")
        return names

    # --------------------------------------------------- dependent operations
    @_traced
    def rmdir(self, path: str) -> Generator[Event, Any, int]:
        """Remove a directory tree (Table I: delete / sync / barrier)."""
        path, target = yield from self._enter("rmdir", path, write=True)
        if target is None:
            removed = yield from self.dfs_client.rmdir(path, recursive=True)
            return removed
        if path == self.region.workspace:
            raise PermissionDenied(path, "cannot remove the region root")
        yield from self._barrier(self.region)
        removed = yield from self.dfs_client.rmdir(path, recursive=True)
        self.region.note_removed_subtree(path)
        self._forget_subtree(path)
        # Clean related metadata from the distributed cache (§III.D.1).
        yield from self.region.cache.delete_subtree(self.node, path)
        self._note("rmdir", "delete", "sync", "barrier")
        return removed

    # ------------------------------------------------- extension operations
    @_traced
    def rename(self, src: str, dst: str) -> Generator[Event, Any, None]:
        """Atomic rename (extension beyond Table I).

        Rename is a *dependent* operation — its correctness depends on
        every earlier creation under ``src`` having reached the DFS — so
        it follows the barrier discipline like rmdir: barrier, rename on
        the DFS synchronously, then refresh the cache (old-path records
        dropped; they reload lazily from the DFS under the new path).
        """
        src = normalize_path(src)
        dst = normalize_path(dst)
        src_target = self._route(src)
        dst_target = self._route(dst)
        if src_target is None and dst_target is None:
            self.redirects += 1
            self._note("rename", "none", "sync", "none")
            yield from self.dfs_client.rename(src, dst)
            return
        if src_target is not self.region or dst_target is not self.region:
            raise ReadOnlyRegion(
                "rename must stay inside the caller's own region"
                f" ({src} -> {dst})")
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        # Both sides need write access to their parent directory.
        yield from self._check_permission("rm", src, self.region)
        yield from self._check_permission("create", dst, self.region)
        yield from self._barrier(self.region)
        yield from self.dfs_client.rename(src, dst)
        # Drop stale cache state for both names; reads repopulate lazily.
        yield from self.region.cache.delete_subtree(self.node, src)
        yield from self.region.cache.delete(self.node, dst)
        self._forget_subtree(src)
        self._note("rename", "delete", "sync", "barrier")

    @_traced
    def chmod(self, path: str, mode: int) -> Generator[Event, Any, None]:
        """Change permissions (extension beyond Table I).

        Under batch permission management a per-entry mode change means
        the entry joins the region's *special permission list* (§III.C);
        the cached record and, synchronously, the DFS backup copy are
        updated as well so hierarchical checks outside the region agree.
        """
        path, target = yield from self._enter("chmod", path, write=True)
        if target is None:
            yield from self.dfs_client.setattr(path, mode=mode)
            return

        state = {"deleted": False, "committed": False}

        def apply(record):
            if record.get("deleted"):
                # Pending removal: the file is going away; chmod must fail
                # like it would on a removed file, not fall through to the
                # miss path and resurrect the old inode from the DFS.
                state["deleted"] = True
                return None
            state["committed"] = record.get("committed", False)
            record["mode"] = mode
            record["mtime"] = self.env.now
            return record

        updated = yield from self.region.cache.update(self.node, path,
                                                      apply)
        if state["deleted"]:
            raise FileNotFound(path)
        if updated is None:
            # Not cached — or the record vanished mid-update (a concurrent
            # rm commit or rmdir cleanup won the race).  Either way the
            # DFS copy is authoritative: it must exist there to be
            # chmod-able (getattr raises FileNotFound otherwise), and the
            # backup-copy update below must not be skipped.
            inode = yield from self.dfs_client.getattr(path)  # may raise
            record = new_record(inode.to_record(), committed=True)
            record["mode"] = mode
            yield from self._cache_fill(path, record)
            state["committed"] = True
        from repro.core.permissions import PermissionSpec
        self.region.permissions.add_special(
            path, PermissionSpec(mode=mode, uid=self.uid, gid=self.gid))
        if state["committed"]:
            yield from self.dfs_client.setattr(path, mode=mode)
        self._note("chmod", "cas-update", "sync", "none")

    # ------------------------------------------------------------- file data
    @_traced
    def write(self, path: str, offset: int, data: Optional[bytes] = None,
              size: Optional[int] = None) -> Generator[Event, Any, int]:
        """Write file data: inline in the cache while small, DFS once large.

        Pass real ``data`` bytes (stored inline, retrievable with
        :meth:`read`) or a synthetic ``size`` for benchmark workloads.
        """
        if (data is None) == (size is None):
            raise ValueError("pass exactly one of data= or size=")
        nbytes = len(data) if data is not None else int(size)
        path, target = yield from self._enter("write", path, write=True)
        if target is None:
            n = yield from self.dfs_client.write(path, offset, nbytes)
            return n

        got = yield from self.region.cache.gets(self.node, path)
        if got is None:
            # Not cached: a DFS-resident (large) file — pure redirect.
            self.cache_misses += 1
            n = yield from self.dfs_client.write(path, offset, nbytes)
            self._note("write", "none", "sync", "none")
            return n
        self.cache_hits += 1
        record, _token = got
        if record.get("deleted"):
            raise FileNotFound(path)
        if record["ftype"] == FileType.DIRECTORY.value:
            raise IsADirectory(path)
        new_size = max(record["size"], offset + nbytes)

        if record.get("large"):
            yield from self.dfs_client.write(path, offset, nbytes)
            if new_size > record["size"]:
                yield from self.region.cache.update(
                    self.node, path, lambda r: {**r, "size": max(r["size"],
                                                                 new_size)})
            self._note("write", "update", "sync", "none")
            return nbytes

        if new_size <= self.config.small_file_threshold:
            # Small file: data lives inline with the metadata (§III.D.2);
            # concurrent updates resolve through the CAS loop.
            def apply(rec):
                buf = bytearray(rec.get("inline_data") or b"")
                if len(buf) < offset + nbytes:
                    buf.extend(b"\x00" * (offset + nbytes - len(buf)))
                chunk = data if data is not None else b"\x00" * nbytes
                buf[offset:offset + nbytes] = chunk
                rec["inline_data"] = bytes(buf)
                rec["size"] = len(buf)
                rec["mtime"] = self.env.now
                return rec

            yield from self.region.cache.update(self.node, path, apply)
            self._note("write", "cas-update", "async", "indep")
            return nbytes

        # Crossing the threshold: materialize on the DFS and stop inlining.
        yield from self._convert_to_large(path, record, offset, nbytes,
                                          new_size)
        self._note("write", "update", "sync", "none")
        return nbytes

    def _convert_to_large(self, path: str, record: Dict, offset: int,
                          nbytes: int,
                          new_size: int) -> Generator[Event, Any, None]:
        """Small→large transition: ensure DFS file, flush inline, redirect."""
        if not record.get("committed"):
            # The asynchronous create may not have landed; create directly
            # (the commit process resolves the EEXIST via the committed
            # flag we set below).
            try:
                yield from self.dfs_client.create(path, mode=record["mode"])
            except FileExists:
                pass
        inline_size = record["size"]
        if inline_size > 0:
            yield from self.dfs_client.write(path, 0, inline_size)
        yield from self.dfs_client.write(path, offset, nbytes)

        def finalize(rec):
            rec["committed"] = True
            rec["large"] = True
            rec["inline_data"] = None
            rec["shadow"] = False
            rec["size"] = max(rec["size"], new_size)
            rec["mtime"] = self.env.now
            return rec

        yield from self.region.cache.update(self.node, path, finalize)

    @_traced
    def read(self, path: str, offset: int,
             size: int) -> Generator[Event, Any, bytes]:
        """Read file data; returns bytes (zero-filled for synthetic data)."""
        path, target = yield from self._enter("read", path)
        if target is None:
            n = yield from self.dfs_client.read(path, offset, size)
            return b"\x00" * n
        record = yield from target.cache.get(self.node, path)
        if record is None:
            self.cache_misses += 1
            n = yield from self.dfs_client.read(path, offset, size)
            self._observe_read("mds", "read", path, region=target)
            self._note("read", "none", "sync", "none")
            return b"\x00" * n
        self.cache_hits += 1
        if record.get("deleted"):
            raise FileNotFound(path)
        if record["ftype"] == FileType.DIRECTORY.value:
            raise IsADirectory(path)
        self._observe_read("shared", "read", path, record, region=target)
        if record.get("large"):
            n = yield from self.dfs_client.read(path, offset, size)
            self._note("read", "get", "sync", "none")
            return b"\x00" * n
        # Small file: metadata + data in the single KV get above (§III.D.2).
        data = record.get("inline_data") or b""
        self._note("read", "get", "none", "none")
        return data[offset:offset + size]

    @_traced
    def fsync(self, path: str) -> Generator[Event, Any, None]:
        """Force inline data to the DFS (§III.D.2).

        If the file's create has not committed yet, the data is written to
        a *cache file* with direct I/O and written back to its original
        position after the create commits (the commit process does the
        write-back).
        """
        path = normalize_path(path)
        target = self._route(path)
        if target is not self.region:
            self._note("fsync", "none", "sync", "none")
            return  # DFS writes in this model are already durable
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        got = yield from self.region.cache.gets(self.node, path)
        if got is None:
            return  # large/DFS-resident: nothing inline to flush
        record, _token = got
        if record.get("deleted"):
            raise FileNotFound(path)
        if record.get("large") or record["size"] == 0:
            return
        if record.get("committed"):
            yield from self.dfs_client.write(path, 0, record["size"])
            self._note("fsync", "get", "sync", "none")
            return
        # Not on the DFS yet: park the bytes in a per-region cache file.
        # The name must come from a process-invariant hash: the built-in
        # hash() is salted per process, which would give every run (and
        # every client process) different shadow paths and break the
        # same-seed-identical-trace guarantee.
        shadow_path = (f"{self.region.dfs_shadow_dir}/"
                       f"{self.client_id}-{stable_hash(path) % (1 << 30)}")
        try:
            yield from self.dfs_client.create(shadow_path)
        except FileExists:
            pass
        yield from self.dfs_client.write(shadow_path, 0, record["size"])
        # Race with the commit process: if the create commits while we were
        # writing the cache file, write through to the real path instead of
        # setting a shadow flag nobody will ever write back.
        state = {"committed_meanwhile": False}

        def set_shadow(rec):
            if rec.get("committed"):
                state["committed_meanwhile"] = True
                return None
            rec["shadow"] = True
            return rec

        updated = yield from self.region.cache.update(self.node, path,
                                                      set_shadow)
        if updated is None and state["committed_meanwhile"]:
            yield from self.dfs_client.write(path, 0, record["size"])
        self._note("fsync", "cas-update", "sync", "none")
