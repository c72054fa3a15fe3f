"""The distributed in-memory metadata cache (primary copy, §III.A).

One :class:`CacheShard` runs on every node of a consistent region (the
Memcached instance of the prototype); a :class:`DistributedCache` spreads
full-path keys over the shards with a consistent-hash ring and gives
clients generator methods for the Memcached verbs Pacon uses — including
``update``, the CAS retry loop of §III.D.3.

Cached records are plain dicts: the inode fields
(:meth:`repro.dfs.inode.Inode.to_record`) plus Pacon bookkeeping flags:

``committed``
    backup copy (DFS) is up to date for the creation of this entry,
``deleted``
    removed in the region but the removal has not committed yet (the
    paper: "removed files are marked and their cached metadata are
    deleted after the operations are committed"),
``large``
    file data has outgrown the inline threshold and lives on the DFS,
``shadow``
    inline data was fsynced to a cache file on the DFS before the real
    file existed there (§III.D.2) and must be written back after create
    commits.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.kvstore.dht import ConsistentHashRing
from repro.kvstore.memkv import CasMismatch, MemKV
from repro.sim.core import Event
from repro.sim.network import Cluster, Node, Service

__all__ = ["CacheShard", "DistributedCache", "new_record"]


def new_record(inode_record: Dict[str, Any], committed: bool = False,
               **flags: Any) -> Dict[str, Any]:
    """Build a cache record from inode fields plus Pacon flags."""
    record = dict(inode_record)
    record.setdefault("inline_data", None)
    record["committed"] = committed
    record["deleted"] = flags.pop("deleted", False)
    record["large"] = flags.pop("large", False)
    record["shadow"] = flags.pop("shadow", False)
    if flags:
        raise TypeError(f"unknown record flags: {sorted(flags)}")
    return record


class CacheShard(Service):
    """Memcached-equivalent shard as an RPC service on one region node."""

    # Attribution buckets: KV service time vs. shard worker-pool wait.
    span_queue_category = "queue_wait"
    span_service_category = "cache"

    def __init__(self, cluster: Cluster, node: Node, capacity_bytes: int,
                 name: str = "cache"):
        super().__init__(cluster, node, name,
                         workers=cluster.costs.memkv_workers)
        self.kv = MemKV(capacity_bytes=capacity_bytes, name=name)

    # Each verb yields its ``memkv_op`` service time directly: a helper
    # generator here would add one frame to every cache round trip.
    def handle_get(self, key: str) -> Generator[Event, Any, Optional[Dict]]:
        yield self.costs.memkv_op
        return self.kv.get(key)

    def handle_gets(self, key: str) -> Generator[Event, Any,
                                                 Optional[Tuple[Dict, int]]]:
        yield self.costs.memkv_op
        return self.kv.gets(key)

    def handle_set(self, key: str, value: Dict) -> Generator[Event, Any, int]:
        yield self.costs.memkv_op
        return self.kv.set(key, value)

    def handle_add(self, key: str, value: Dict) -> Generator[Event, Any, int]:
        yield self.costs.memkv_op
        return self.kv.add(key, value)

    def handle_cas(self, key: str, value: Dict,
                   token: int) -> Generator[Event, Any, int]:
        yield self.costs.memkv_op
        return self.kv.cas(key, value, token)

    def handle_delete(self, key: str) -> Generator[Event, Any, bool]:
        yield self.costs.memkv_op
        return self.kv.delete(key)

    def handle_delete_if_ino(self, key: str,
                             ino: int) -> Generator[Event, Any, bool]:
        """Atomic conditional delete: only the matching generation dies."""
        yield self.costs.memkv_op
        record = self.kv.get(key)
        if record is not None and record.get("ino") == ino:
            return self.kv.delete(key)
        return False

    def handle_scan_prefix(self, prefix: str) -> Generator[
            Event, Any, List[Tuple[str, Dict]]]:
        """Full-table scan — cold path only (rmdir cleanup, rebuild)."""
        yield (self.costs.memkv_op +
               self.costs.memkv_scan_per_item * len(self.kv))
        return list(self.kv.scan_prefix(prefix))

    def handle_delete_prefix(self, prefix: str) -> Generator[Event, Any, int]:
        yield (self.costs.memkv_op +
               self.costs.memkv_scan_per_item * len(self.kv))
        doomed = [k for k, _ in self.kv.scan_prefix(prefix)]
        for k in doomed:
            self.kv.delete(k)
        return len(doomed)


class DistributedCache:
    """Consistent-hash view over the region's cache shards."""

    def __init__(self, shards: List[CacheShard]):
        if not shards:
            raise ValueError("need at least one cache shard")
        self.shards = list(shards)
        self.ring: ConsistentHashRing[CacheShard] = ConsistentHashRing()
        for shard in self.shards:
            self.ring.add(shard)
        self.cas_retries = 0

    def shard_for(self, path: str) -> CacheShard:
        return self.ring.lookup(path)

    # -- basic verbs (generators; run inside a DES process) -------------------
    # Plain functions returning the shard's request generator: the caller's
    # ``yield from`` drives it directly, with no pass-through frame here
    # (nor a ``shard_for`` call).
    def get(self, src: Node, path: str) -> Generator[Event, Any,
                                                     Optional[Dict]]:
        return self.ring.lookup(path).request(src, "get", path)

    def gets(self, src: Node, path: str) -> Generator[
            Event, Any, Optional[Tuple[Dict, int]]]:
        return self.ring.lookup(path).request(src, "gets", path)

    def set(self, src: Node, path: str,
            record: Dict) -> Generator[Event, Any, int]:
        return self.ring.lookup(path).request(src, "set", path, record)

    def add(self, src: Node, path: str,
            record: Dict) -> Generator[Event, Any, int]:
        return self.ring.lookup(path).request(src, "add", path, record)

    def cas(self, src: Node, path: str, record: Dict,
            token: int) -> Generator[Event, Any, int]:
        return self.ring.lookup(path).request(src, "cas", path, record, token)

    def delete(self, src: Node, path: str) -> Generator[Event, Any, bool]:
        return self.ring.lookup(path).request(src, "delete", path)

    def delete_if_ino(self, src: Node, path: str,
                      ino: int) -> Generator[Event, Any, bool]:
        return self.ring.lookup(path).request(src, "delete_if_ino", path, ino)

    # -- compound operations ------------------------------------------------------
    def update(self, src: Node, path: str,
               fn: Callable[[Dict], Optional[Dict]],
               ) -> Generator[Event, Any, Optional[Dict]]:
        """CAS retry loop (§III.D.3): re-read and re-apply until it sticks.

        ``fn`` receives a copy of the current record and returns the new
        record, or None to abort.  Returns the stored record, or None if
        the key vanished or ``fn`` aborted.
        """
        while True:
            got = yield from self.gets(src, path)
            if got is None:
                return None
            record, token = got
            new_record_value = fn(dict(record))
            if new_record_value is None:
                return None
            try:
                yield from self.cas(src, path, new_record_value, token)
                return new_record_value
            except CasMismatch:
                self.cas_retries += 1
                continue

    def delete_subtree(self, src: Node,
                       prefix: str) -> Generator[Event, Any, int]:
        """Remove every cached entry at or under ``prefix`` on all shards."""
        total = 0
        for shard in self.shards:
            n = yield from shard.request(src, "delete_prefix",
                                         prefix.rstrip("/") + "/")
            total += n
            existed = yield from shard.request(src, "delete", prefix)
            total += 1 if existed else 0
        return total

    def scan_subtree(self, src: Node, prefix: str) -> Generator[
            Event, Any, List[Tuple[str, Dict]]]:
        """Collect all cached entries under ``prefix`` (cold path)."""
        out: List[Tuple[str, Dict]] = []
        for shard in self.shards:
            part = yield from shard.request(src, "scan_prefix",
                                            prefix.rstrip("/") + "/")
            out.extend(part)
        return sorted(out)

    # -- introspection ---------------------------------------------------------------
    def total_items(self) -> int:
        return sum(len(s.kv) for s in self.shards)

    def used_bytes(self) -> int:
        return sum(s.kv.used_bytes for s in self.shards)

    def hit_miss_counts(self) -> Tuple[int, int]:
        """(hits, misses) summed over all shards."""
        return (sum(s.kv.hits for s in self.shards),
                sum(s.kv.misses for s in self.shards))

    def hit_rate(self) -> float:
        hits = sum(s.kv.hits for s in self.shards)
        misses = sum(s.kv.misses for s in self.shards)
        total = hits + misses
        return hits / total if total else 0.0

    def peek(self, path: str) -> Optional[Dict]:
        """Read a record at zero simulated cost (no RPC, no service time).

        The commit pipeline (coalescing, commit-failure triage) and the
        lost-op fences call it, and tests use it in assertions.  It skips
        the shard's hit/miss counts, but not the ring: each call is a
        ``ring.lookup``, which ``consistency.shard_reads`` counts while a
        hub is attached.
        """
        item = self.shard_for(path).kv._items.get(path)
        return None if item is None else item.value
