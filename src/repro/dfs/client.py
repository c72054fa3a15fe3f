"""The native DFS client: hierarchical traversal, synchronous RPCs.

This is the baseline "strong consistency in the client-side metadata
cache" behaviour the paper argues against (§II.B): every metadata
operation communicates synchronously with the centralized metadata
service, and path resolution issues one lookup RPC per ancestor component
(the client cannot trust any locally cached dentry without revalidating,
and a revalidation is itself an RPC — so the cache saves bytes, not round
trips, and we model it as the round trips).

All methods are DES generators; wrap them with
:func:`repro.sim.core.run_sync` for synchronous library-style use.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.dfs.inode import Inode
from repro.dfs.namespace import normalize_path, parent_of, split_path
from repro.dfs.storage import stripe_ranges
from repro.sim.core import Event

__all__ = ["DFSClient"]

#: RPCs whose result is an inode record; ``_op`` returns it as an Inode.
_INODE_RESULTS = frozenset({"mkdir", "create", "getattr", "setattr"})


class DFSClient:
    """Per-process client handle onto a BeeGFS-like deployment."""

    def __init__(self, deployment, node, uid: int = 1000, gid: int = 1000):
        self.fs = deployment
        self.cluster = deployment.cluster
        self.env = deployment.cluster.env
        self.costs = deployment.cluster.costs
        self.node = node
        self.uid = uid
        self.gid = gid
        # observability
        self.rpcs_sent = 0
        self.lookup_rpcs = 0

    # -- the one RPC path ---------------------------------------------------
    def _op(self, path: str, method: str, *args,
            **kwargs) -> Generator[Event, Any, Any]:
        """One metadata operation, driven from this one generator frame.

        Validates ``path`` and resolves every ancestor with one lookup RPC
        per component (the final component is resolved by the operation
        RPC itself) -- the depth-proportional network cost measured in
        Figs. 2 and 9.  Then it sends ``method`` with ``path`` first to
        the MDS owning ``path``'s parent and hands an inode record back as
        an :class:`Inode`.  A ``commit_batch`` sends ``args`` alone, its
        ``path`` naming the batch's first op.
        """
        path = normalize_path(path)
        node, uid, gid = self.node, self.uid, self.gid
        current = "/"
        for name in split_path(path)[:-1]:
            self.rpcs_sent += 1
            self.lookup_rpcs += 1
            yield from self.fs.mds_for(current).request(
                node, "lookup", current, name, uid, gid)
            current = current.rstrip("/") + "/" + name
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        mds = self.fs.mds_for(parent_of(path) if path != "/" else "/")
        self.rpcs_sent += 1
        if method == "commit_batch":
            return (yield from mds.request(node, method, *args, **kwargs))
        result = yield from mds.request(node, method, path, *args, **kwargs)
        if method in _INODE_RESULTS:
            return Inode.from_record(result)
        return result

    # -- metadata operations -------------------------------------------------
    # Each returns ``_op``'s generator itself, so a resume crosses one
    # client frame.  ``token`` (optional) is an idempotency key for
    # at-least-once retry of the mutation; see MetadataServer's
    # commit-dedup token memory.
    def mkdir(self, path: str, mode: int = 0o755,
              token: Any = None) -> Generator[Event, Any, Inode]:
        return self._op(path, "mkdir", mode, self.uid, self.gid, token=token)

    def create(self, path: str, mode: int = 0o644,
               token: Any = None) -> Generator[Event, Any, Inode]:
        return self._op(path, "create", mode, self.uid, self.gid,
                        token=token)

    def unlink(self, path: str,
               token: Any = None) -> Generator[Event, Any, None]:
        return self._op(path, "unlink", self.uid, self.gid, token=token)

    rm = unlink  # alias shared with the Pacon/IndexFS client protocols

    def commit_batch(self, ops: List[Tuple[str, str, Dict]],
                     ) -> Generator[Event, Any, List[Tuple[str, Any]]]:
        """Apply several same-parent mutations in one MDS round trip.

        ``ops`` is a list of ``(op, path, kwargs)`` with ``op`` one of
        ``mkdir``/``create``/``unlink``; every path is already normalized
        (they come from validated op messages) and must share one parent
        directory (one ancestor traversal and one owning MDS cover the
        whole batch).  Returns one ``("ok", record_or_None)`` or
        ``("err", exception)`` per op, in order — partial success is the
        point: the commit pipeline resolves each outcome independently
        (resubmit, discard, or committed).
        """
        if not ops:
            return []
        parent = parent_of(ops[0][1])
        for _kind, path, _kw in ops[1:]:
            if parent_of(path) != parent:
                raise ValueError("commit_batch requires a shared parent"
                                 f" directory, got {path} outside {parent}")
        size = (self.costs.request_header_size
                + self.costs.metadata_record_size * len(ops))
        results = yield from self._op(ops[0][1], "commit_batch", ops,
                                      self.uid, self.gid, req_size=size,
                                      resp_size=size)
        return results

    def rmdir(self, path: str,
              recursive: bool = False) -> Generator[Event, Any, int]:
        return self._op(path, "rmdir", self.uid, self.gid,
                        recursive=recursive)

    def getattr(self, path: str) -> Generator[Event, Any, Inode]:
        return self._op(path, "getattr", self.uid, self.gid)

    def readdir(self, path: str) -> Generator[Event, Any, List[str]]:
        return self._op(path, "readdir", self.uid, self.gid)

    def setattr(self, path: str, **attrs) -> Generator[Event, Any, Inode]:
        return self._op(path, "setattr", self.uid, self.gid, **attrs)

    # -- data operations ---------------------------------------------------------
    def write(self, path: str, offset: int,
              size: int) -> Generator[Event, Any, int]:
        """Striped write of ``size`` bytes at ``offset``."""
        inode = yield from self.getattr(path)
        yield from self._stripe_io("write_chunk", inode.ino, offset, size)
        new_size = offset + size
        if new_size > inode.size:
            yield from self.setattr(path, size=new_size)
        return size

    def read(self, path: str, offset: int,
             size: int) -> Generator[Event, Any, int]:
        """Striped read; returns the number of valid bytes."""
        inode = yield from self.getattr(path)
        got = yield from self._stripe_io("read_chunk", inode.ino, offset, size)
        return got

    def _stripe_io(self, method: str, ino: int, offset: int,
                   size: int) -> Generator[Event, Any, int]:
        ranges = stripe_ranges(offset, size, self.costs.stripe_size)
        procs = []
        for chunk, chunk_off, take in ranges:
            server = self.fs.data_server_for(ino, chunk)
            self.rpcs_sent += 1
            payload = take if method == "write_chunk" else 0
            resp = take if method == "read_chunk" else 0
            procs.append(self.env.process(
                server.request(self.node, method, ino, chunk, chunk_off,
                               take, req_size=self.costs.request_header_size
                               + payload,
                               resp_size=self.costs.request_header_size
                               + resp),
                label=f"io:{method}:{ino}:{chunk}"))
        if not procs:
            return 0
        results = yield self.env.all_of(procs)
        return sum(results)
