"""Fig. 10: Pacon overhead vs raw in-memory KV (Memcached).

Single client, no concurrency: mdtest creates a fanout-5 namespace of a
given depth on each file system, and memaslap inserts items into the raw
distributed cache.  Paper: Pacon reaches >64.6 % of raw Memcached
throughput; BeeGFS/IndexFS are far below because their metadata lives on
the local FS / an on-disk KV.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import experiment
from repro.bench.systems import make_testbed
from repro.core.cache import CacheShard, DistributedCache
from repro.sim.network import Cluster
from repro.workloads.mdtest import build_tree
from repro.workloads.memaslap import MemaslapConfig, run_memaslap

__all__ = ["run", "SCALES", "mkdir_throughput", "memaslap_throughput"]

SCALES: Dict[str, Dict] = {
    "smoke": {"depths": [2], "fanout": 4, "nodes": 2},
    "ci": {"depths": [2, 3, 4], "fanout": 4, "nodes": 4},
    "paper": {"depths": [2, 3, 4, 5], "fanout": 5, "nodes": 16},
}


def mkdir_throughput(system: str, fanout: int, depth: int,
                     nodes: int, seed: int) -> float:
    """Single client builds the tree; returns mkdirs/second."""
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=1, seed=seed)
    client = bed.clients[0]
    t0 = bed.env.now
    leaves = build_tree(bed.env, client, "/app", fanout=fanout, depth=depth)
    elapsed = bed.env.now - t0
    total = sum(fanout ** level for level in range(1, depth + 1))
    assert len(leaves) == fanout ** depth
    return total / elapsed if elapsed > 0 else 0.0


def memaslap_throughput(operations: int, nodes: int,
                        seed: int) -> float:
    """Raw distributed-cache insertions from one client (memaslap -c 1)."""
    cluster = Cluster(seed=seed)
    cache_nodes = [cluster.add_node(f"cache{i}") for i in range(nodes)]
    shards = [CacheShard(cluster, node, capacity_bytes=1 << 28,
                         name=f"raw{i}")
              for i, node in enumerate(cache_nodes)]
    cache = DistributedCache(shards)
    # memaslap runs on one of the cluster nodes, like a Pacon client does.
    return run_memaslap(cluster.env, cache, cache_nodes[0],
                        MemaslapConfig(operations=operations))


@experiment("fig10", "Pacon overhead vs raw Memcached (single client mkdir)",
            SCALES)
def run(out, params, seed):
    for depth in params["depths"]:
        total_items = sum(params["fanout"] ** level
                          for level in range(1, depth + 1))
        raw = memaslap_throughput(total_items, params["nodes"], seed=seed)
        row: Dict[str, float] = {"depth": depth,
                                 "memcached": round(raw)}
        for system in ("pacon", "beegfs", "indexfs"):
            ops = mkdir_throughput(system, params["fanout"], depth,
                                   params["nodes"], seed=seed)
            row[system] = round(ops)
        row["pacon_vs_memcached_pct"] = round(
            row["pacon"] / row["memcached"] * 100, 1)
        out.add(**row)
    worst = min(r["pacon_vs_memcached_pct"] for r in out.rows)
    out.derive("worst_pacon_vs_memcached_pct", worst)
    out.note(f"Pacon reaches >= {worst}% of raw Memcached throughput"
             " (paper: more than 64.6%)")
    out.note("BeeGFS/IndexFS are far below the in-memory KV because their"
             " metadata writes hit the MDS disk / the DFS-backed LSM")

