"""Workload table and seeded input generation.

Everything a workload feeds the system is made here from ``--seed``:
the per-rank op lists of every phase, the random stat targets, and
the set of namespace entries the run must leave behind.  The system under test
receives only the generated paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

WORKDIR = "/app"


@dataclass(frozen=True)
class Geometry:
    """Closed-loop load shape: ``nodes * ranks_per_node`` clients."""

    nodes: int
    ranks_per_node: int
    items: int            # mdtest: ops per rank per phase
    stats: int = 0        # deepstat: random leaf stats per rank
    fanout: int = 0       # deepstat tree
    depth: int = 0

    @property
    def clients(self) -> int:
        return self.nodes * self.ranks_per_node


@dataclass(frozen=True)
class Workload:
    name: str
    system: str           # make_testbed system
    kind: str             # "mdtest" | "deepstat"
    observed: bool        # MetricsHub + Tracer attached, export timed
    full: Geometry
    quick: Geometry
    why: str

    def geometry(self, scale: str) -> Geometry:
        return self.quick if scale == "quick" else self.full


#: 2x5 clients; used for the untimed warm-up run and the smoke test.
_QUICK_MDTEST = Geometry(nodes=2, ranks_per_node=5, items=20)
_QUICK_DEEP = Geometry(nodes=2, ranks_per_node=5, items=0, stats=40,
                       fanout=2, depth=4)

#: 8 client nodes x 20 ranks is the paper's mdtest geometry at 8 nodes.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mdtest_pacon", "pacon", "mdtest", False,
        Geometry(nodes=8, ranks_per_node=20, items=30), _QUICK_MDTEST,
        "Fig. 7 headline: write + async-commit path through core, "
        "kvstore.memkv, mq and the dfs MDS; the commit drain is timed"),
    Workload(
        "mdtest_pacon_observed", "pacon", "mdtest", True,
        Geometry(nodes=8, ranks_per_node=20, items=15), _QUICK_MDTEST,
        "same phases with MetricsHub+Tracer attached and the export "
        "timed: the only workload where obs and sim.trace do real work"),
    Workload(
        "deepstat_pacon", "pacon", "deepstat", False,
        Geometry(nodes=8, ranks_per_node=20, items=0, stats=200,
                 fanout=4, depth=6),
        _QUICK_DEEP,
        "Fig. 9: read-only stats of 7-component paths on a warmed "
        "cache; mq and commit idle, so path-handling cost shows here"),
    Workload(
        "mdtest_beegfs", "beegfs", "mdtest", False,
        Geometry(nodes=8, ranks_per_node=20, items=30), _QUICK_MDTEST,
        "native BeeGFS: only sim kernel, network, resources and the "
        "saturated MDS; bypasses core, mq, kvstore and obs entirely"),
    Workload(
        "mdtest_indexfs", "indexfs", "mdtest", False,
        Geometry(nodes=8, ranks_per_node=20, items=30), _QUICK_MDTEST,
        "IndexFS co-located with clients: the only user of baselines "
        "and kvstore.lsm; bypasses core, mq and dfs.mds"),
)}


@dataclass
class Inputs:
    #: Directories built through one client during set-up, parents first.
    tree: List[str]
    #: ``(phase name, client method, per-rank path lists)`` in run order.
    phases: List[Tuple[str, str, List[List[str]]]]
    #: Every entry at or under WORKDIR after the drain: path -> is_dir.
    expected: Dict[str, bool]

    @property
    def ops(self) -> int:
        return sum(len(paths) for _, _, per_rank in self.phases
                   for paths in per_rank)


def _deal(rng: random.Random, pool: List[str], ranks: int,
          per_rank: int) -> List[List[str]]:
    """Random stat targets: ``pool`` repeated to length, shuffled, dealt.

    Every target is hit equally often (to within one), so the load each
    cache shard sees does not depend on the seed — only who asks for
    what, and when, does.  Drawing with replacement instead moves
    ``deepstat_pacon``'s simulated throughput by 2.7 % from seed to
    seed (the fullest of 8 shards bounds it); dealt, by 0.3 %.
    """
    total = ranks * per_rank
    targets = (pool * (total // len(pool) + 1))[:total]
    rng.shuffle(targets)
    return [targets[r * per_rank:(r + 1) * per_rank] for r in range(ranks)]


def generate(workload: Workload, geo: Geometry, seed: int) -> Inputs:
    rng = random.Random(seed)
    ranks = range(geo.clients)
    expected = {WORKDIR: True}
    if workload.kind == "mdtest":
        dirs = [[f"{WORKDIR}/dir.{r}.{i}" for i in range(geo.items)]
                for r in ranks]
        files = [[f"{WORKDIR}/file.{r}.{i}" for i in range(geo.items)]
                 for r in ranks]
        pool = [p for per_rank in files for p in per_rank]
        # With replacement, as mdtest's random stat draws them: which
        # files are hit twice decides the MDS inode-cache hits.
        stats = [[pool[rng.randrange(len(pool))] for _ in range(geo.items)]
                 for _ in ranks]
        expected.update((p, True) for per_rank in dirs for p in per_rank)
        expected.update((p, False) for p in pool)
        return Inputs([], [("mkdir", "mkdir", dirs),
                           ("create", "create", files),
                           ("stat", "getattr", stats)], expected)
    tree: List[str] = []
    frontier = [WORKDIR]
    for _ in range(geo.depth):
        frontier = [f"{parent}/d{k}" for parent in frontier
                    for k in range(geo.fanout)]
        tree.extend(frontier)
    stats = _deal(rng, frontier, geo.clients, geo.stats)
    expected.update((p, True) for p in tree)
    return Inputs(tree, [("stat", "getattr", stats)], expected)
