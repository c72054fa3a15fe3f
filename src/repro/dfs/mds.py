"""The centralized metadata server as a DES actor.

One :class:`MetadataServer` is a capacity-limited RPC service over the
(possibly shared) :class:`~repro.dfs.namespace.Namespace`.  Its worker pool
and service times are where centralized metadata processing saturates —
Figs. 1 and 11 of the paper are about exactly this queueing point.

A multi-MDS deployment shares one Namespace object between servers (the
namespace is the *logical* metadata state; which server answers for which
directory is a deployment policy in :mod:`repro.dfs.beegfs`).  Sharing the
structure keeps semantics exact while each server charges its own queueing
and service time, mirroring how BeeGFS shards directories over MDS targets.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.dfs.namespace import Namespace, snapshot_entries
from repro.sim.core import Event, Interrupt
from repro.sim.network import Cluster, Node, Service

__all__ = ["MetadataServer"]


class MetadataServer(Service):
    """RPC façade over a Namespace, with BeeGFS-class service times.

    The server keeps an LRU inode/dentry cache: lookups of entries that
    fell out of it pay an extra disk read.  Large namespaces (the deep
    fanout-5 trees of Figs. 2/9) overflow the cache under random access,
    which is what makes BeeGFS's depth penalty superlinear on real
    hardware.
    """

    # Attribution buckets: handler service time vs. MDS worker-pool wait.
    span_queue_category = "mds_queue"
    span_service_category = "mds_service"

    #: Commit-dedup token memory (entries).  Tokens make the mutation RPCs
    #: idempotent under at-least-once retry: a commit process that saw its
    #: response lost (MDS crash after apply) replays the op with the same
    #: token and gets the recorded result instead of a double apply.
    COMMIT_TOKEN_CAPACITY = 65536

    def __init__(self, cluster: Cluster, node: Node, namespace: Namespace,
                 name: str = "mds", workers: Optional[int] = None):
        super().__init__(cluster, node, name,
                         workers=workers or cluster.costs.mds_workers)
        self.namespace = namespace
        self._inode_cache: OrderedDict[str, None] = OrderedDict()
        self.inode_cache_hits = 0
        self.inode_cache_misses = 0
        self._applied_tokens: OrderedDict[Any, Any] = OrderedDict()
        self.token_replays = 0

    def commit_stamp(self, path: str) -> Optional[Tuple[int, float]]:
        """(commit generation, commit sim-time) of the authoritative copy.

        Zero-cost observability peek (no simulated time, no RPC, no
        counter bumps) used by the staleness lens to compare served cache
        records against the MDS copy; None if the path is not committed.
        """
        return self.namespace.commit_stamp(path)

    def _touch_inode_cache(self, path: str) -> float:
        """LRU access; returns the extra cost of a miss (0 on hit)."""
        capacity = self.costs.mds_inode_cache_entries
        if capacity <= 0:
            return 0.0
        if path in self._inode_cache:
            self._inode_cache.move_to_end(path)
            self.inode_cache_hits += 1
            return 0.0
        self.inode_cache_misses += 1
        self._inode_cache[path] = None
        while len(self._inode_cache) > capacity:
            self._inode_cache.popitem(last=False)
        return self.costs.mds_inode_cache_miss

    # -- read path -----------------------------------------------------------
    def handle_lookup(self, dir_path: str, name: str, uid: int = 0,
                      gid: int = 0) -> Generator[Event, Any, Dict]:
        """Resolve one dentry: ``dir_path/name`` -> child inode record.

        This is the per-component RPC of hierarchical path traversal; the
        client walks the path issuing one of these per level (§II.C).
        """
        child_path = (dir_path.rstrip("/") + "/" + name) if name else dir_path
        yield (self.costs.mds_lookup_service +
               self._touch_inode_cache(child_path))
        inode = self.namespace.getattr(child_path, uid, gid, check_perms=True)
        return inode.to_record()

    def handle_getattr(self, path: str, uid: int = 0,
                       gid: int = 0) -> Generator[Event, Any, Dict]:
        yield self.costs.mds_read_service + self._touch_inode_cache(path)
        return self.namespace.getattr(path, uid, gid,
                                      check_perms=True).to_record()

    def handle_readdir(self, path: str, uid: int = 0,
                       gid: int = 0) -> Generator[Event, Any, List[str]]:
        names = self.namespace.readdir(path, uid, gid, check_perms=True)
        yield (self.costs.mds_readdir_base +
               self.costs.mds_readdir_per_entry * len(names))
        return names

    def handle_exists(self, path: str) -> Generator[Event, Any, bool]:
        yield self.costs.mds_lookup_service
        return self.namespace.exists(path)

    # -- write path ------------------------------------------------------------
    def _mutate(self, op: str, path: str, mode: int, uid: int, gid: int,
                check_perms: bool, token: Any,
                service_time: float) -> Generator[Event, Any, Any]:
        """The one tokened-mutation path (``mkdir``/``create``/``unlink``).

        A token already applied is a replay: it costs a lookup and returns
        the recorded result.  Anything else charges ``service_time``,
        applies the mutation to the namespace and records the token.
        ``unlink`` takes no ``mode``; the argument is ignored for it.
        """
        applied = self._applied_tokens
        if token is not None and token in applied:
            applied.move_to_end(token)
            self.token_replays += 1
            yield self.costs.mds_lookup_service
            return applied[token]
        yield service_time
        if op == "mkdir":
            record = self.namespace.mkdir(
                path, mode, uid, gid, now=self.env.now,
                check_perms=check_perms).to_record()
        elif op == "create":
            record = self.namespace.create(
                path, mode, uid, gid, now=self.env.now,
                check_perms=check_perms).to_record()
        elif op == "unlink":
            self.namespace.unlink(path, uid, gid, now=self.env.now,
                                  check_perms=check_perms)
            record = None
        else:
            raise ValueError(f"commit_batch cannot apply {op!r}")
        if token is not None:
            applied[token] = record
            while len(applied) > self.COMMIT_TOKEN_CAPACITY:
                applied.popitem(last=False)
        return record

    def handle_mkdir(self, path: str, mode: int = 0o755, uid: int = 0,
                     gid: int = 0, check_perms: bool = True,
                     token: Any = None) -> Generator[Event, Any, Dict]:
        return self._mutate("mkdir", path, mode, uid, gid, check_perms,
                            token, self.costs.mds_op_service)

    def handle_create(self, path: str, mode: int = 0o644, uid: int = 0,
                      gid: int = 0, check_perms: bool = True,
                      token: Any = None) -> Generator[Event, Any, Dict]:
        return self._mutate("create", path, mode, uid, gid, check_perms,
                            token, self.costs.mds_op_service)

    def handle_unlink(self, path: str, uid: int = 0, gid: int = 0,
                      check_perms: bool = True,
                      token: Any = None) -> Generator[Event, Any, None]:
        return self._mutate("unlink", path, 0, uid, gid, check_perms,
                            token, self.costs.mds_op_service)

    def handle_rmdir(self, path: str, uid: int = 0, gid: int = 0,
                     check_perms: bool = True,
                     recursive: bool = False) -> Generator[Event, Any, int]:
        yield self.costs.mds_op_service
        removed = self.namespace.rmdir(path, uid, gid, now=self.env.now,
                                       check_perms=check_perms,
                                       recursive=recursive)
        if removed > 1:
            yield self.costs.mds_remove_per_entry * (removed - 1)
        return removed

    def handle_setattr(self, path: str, uid: int = 0, gid: int = 0,
                       check_perms: bool = True,
                       **attrs) -> Generator[Event, Any, Dict]:
        yield self.costs.mds_op_service
        inode = self.namespace.setattr(path, uid, gid, now=self.env.now,
                                       check_perms=check_perms, **attrs)
        return inode.to_record()

    def handle_rename(self, src: str, dst: str, uid: int = 0, gid: int = 0,
                      check_perms: bool = True) -> Generator[Event, Any, None]:
        yield self.costs.mds_op_service
        self.namespace.rename(src, dst, uid, gid, now=self.env.now,
                              check_perms=check_perms)

    def handle_commit_batch(self, ops: List[Tuple[str, str, Dict]],
                            uid: int = 0, gid: int = 0,
                            ) -> Generator[Event, Any,
                                           List[Tuple[str, Any]]]:
        """Apply a batch of same-parent mutations with amortized lookups.

        The first op pays the full journaled-mutation service time; each
        subsequent op rides the warm dentry/journal state and is
        discounted by ``mds_batch_lookup_discount``.  Domain errors are
        captured *per op* (``("err", exc)``) so one rejected mutation —
        e.g. a child whose parent creation still sits in another node's
        queue — never poisons the rest of the batch.
        """
        service_time = self.costs.mds_op_service
        discounted = service_time * max(
            0.0, 1.0 - self.costs.mds_batch_lookup_discount)
        results: List[Tuple[str, Any]] = []
        for op, path, kwargs in ops:
            token = kwargs.get("token")
            # Same test `_mutate` makes, with no yield between the two: the
            # pool's other workers replay tokens during this op's hold.
            replay = token is not None and token in self._applied_tokens
            try:
                record = yield from self._mutate(
                    op, path,
                    kwargs.get("mode", 0o755 if op == "mkdir" else 0o644),
                    uid, gid, True, token, service_time)
            except Interrupt:
                # The *caller* being killed during a service hold, not a
                # domain error: capturing it would un-kill the caller.
                raise
            except Exception as exc:  # domain errors resolve per op
                results.append(("err", exc))
            else:
                results.append(("ok", record))
            if not replay:  # a charged op spends the full-price slot
                service_time = discounted
        return results

    # -- checkpoint support (§III.G) --------------------------------------------
    def handle_export_subtree(self, path: str) -> Generator[Event, Any, Dict]:
        snapshot = self.namespace.export_subtree(path)
        entries = snapshot_entries(snapshot["tree"])
        yield (self.costs.mds_read_service +
               self.costs.mds_readdir_per_entry * entries)
        return snapshot

    def handle_restore_subtree(self, checkpoint: Dict) -> Generator[Event, Any, int]:
        entries = snapshot_entries(checkpoint["tree"])
        yield (self.costs.mds_op_service +
               self.costs.mds_remove_per_entry * entries)
        return self.namespace.restore_subtree(checkpoint, now=self.env.now)
