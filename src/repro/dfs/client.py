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
from repro.sim.core import Event, Interrupt

__all__ = ["DFSClient"]


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

    # -- path traversal ---------------------------------------------------
    def _traverse_parents(self, path: str) -> Generator[Event, Any, None]:
        """Resolve every ancestor of ``path`` with per-component lookups.

        Issues ``len(components) - 1`` lookup RPCs (the final component is
        resolved by the operation RPC itself).  This is the depth-
        proportional network cost measured in Figs. 2 and 9.  ``path`` is
        already normalized (``_op``/``rename`` validate at entry).
        """
        parts = split_path(path)
        current = "/"
        for name in parts[:-1]:
            mds = self.fs.mds_for(current)
            self.rpcs_sent += 1
            self.lookup_rpcs += 1
            yield from mds.request(self.node, "lookup", current, name,
                                   self.uid, self.gid)
            current = current.rstrip("/") + "/" + name

    def _op(self, path: str, method: str, *args,
            **kwargs) -> Generator[Event, Any, Any]:
        """Validate ``path``, traverse ancestors, issue the operation RPC."""
        path = normalize_path(path)
        yield from self._traverse_parents(path)
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        mds = self.fs.mds_for(parent_of(path) if path != "/" else "/")
        self.rpcs_sent += 1
        result = yield from mds.request(self.node, method, path, *args,
                                        **kwargs)
        return result

    # -- metadata operations -------------------------------------------------
    # ``token`` (optional) is an idempotency key for at-least-once retry
    # of the mutation; see MetadataServer's commit-dedup token memory.
    def mkdir(self, path: str, mode: int = 0o755,
              token: Any = None) -> Generator[Event, Any, Inode]:
        record = yield from self._op(path, "mkdir", mode, self.uid, self.gid,
                                     token=token)
        return Inode.from_record(record)

    def create(self, path: str, mode: int = 0o644,
               token: Any = None) -> Generator[Event, Any, Inode]:
        record = yield from self._op(path, "create", mode, self.uid, self.gid,
                                     token=token)
        return Inode.from_record(record)

    def unlink(self, path: str,
               token: Any = None) -> Generator[Event, Any, None]:
        yield from self._op(path, "unlink", self.uid, self.gid, token=token)

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
        for _op, path, _kw in ops[1:]:
            if parent_of(path) != parent:
                raise ValueError("commit_batch requires a shared parent"
                                 f" directory, got {path} outside {parent}")
        yield from self._traverse_parents(ops[0][1])
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        mds = self.fs.mds_for(parent)
        self.rpcs_sent += 1
        per_op = self.costs.request_header_size
        results = yield from mds.request(
            self.node, "commit_batch", ops, self.uid, self.gid,
            req_size=per_op + self.costs.metadata_record_size * len(ops),
            resp_size=per_op + self.costs.metadata_record_size * len(ops))
        return results

    def rmdir(self, path: str,
              recursive: bool = False) -> Generator[Event, Any, int]:
        removed = yield from self._op(path, "rmdir", self.uid, self.gid,
                                      recursive=recursive)
        return removed

    def getattr(self, path: str) -> Generator[Event, Any, Inode]:
        record = yield from self._op(path, "getattr", self.uid, self.gid)
        return Inode.from_record(record)

    def exists(self, path: str) -> Generator[Event, Any, bool]:
        try:
            yield from self.getattr(path)
            return True
        except Interrupt:
            raise  # caller killed mid-probe (node crash), not "absent"
        except Exception:
            return False

    def readdir(self, path: str) -> Generator[Event, Any, List[str]]:
        names = yield from self._op(path, "readdir", self.uid, self.gid)
        return names

    def setattr(self, path: str, **attrs) -> Generator[Event, Any, Inode]:
        record = yield from self._op(path, "setattr", self.uid, self.gid,
                                     **attrs)
        return Inode.from_record(record)

    def rename(self, src: str, dst: str) -> Generator[Event, Any, None]:
        dst = normalize_path(dst)
        yield from self._traverse_parents(dst)
        yield from self._op(src, "rename", dst, self.uid, self.gid)

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
        from repro.dfs.storage import stripe_ranges

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
