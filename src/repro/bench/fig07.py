"""Fig. 7: single-application performance (mkdir / create / random stat).

mdtest on 2–16 client nodes × 20 clients per node, shared parent
directory, namespace depth 1; Pacon runs one consistent region.  Paper
headlines: Pacon >76.4× BeeGFS and >8.8× IndexFS on writes, >6.5× BeeGFS
and >2.6× IndexFS on random stat.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence

from repro.bench.report import experiment
from repro.bench.systems import DEFAULT_SEED, SYSTEMS, make_testbed
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["run", "SCALES", "single_app_point", "batching_comparison"]

SCALES: Dict[str, Dict] = {
    "smoke": {"node_counts": [2], "cpn": 5, "items": 20},
    "ci": {"node_counts": [2, 4], "cpn": 10, "items": 25},
    "paper": {"node_counts": [2, 4, 8, 16], "cpn": 20, "items": 100},
}

PHASES = ("mkdir", "create", "stat")


def single_app_point(system: str, nodes: int, cpn: int,
                     items: int, hub: Optional[object] = None,
                     seed: int = DEFAULT_SEED) -> Dict[str, float]:
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, hub=hub, seed=seed)
    config = MdtestConfig(workdir="/app", items_per_client=items,
                          phases=PHASES)
    result = run_mdtest(bed.env, bed.clients, config)
    ops = {phase: result.ops(phase) for phase in PHASES}
    if bed.pacon is not None:
        # Drain the async commit pipeline so commit-latency histograms and
        # resubmission counters cover every queued op, and so the
        # committed-op count below is total.  Reported phase throughput
        # is captured above, before the drain, and the drain happens in
        # every run — instrumented and not — so the two stay
        # simulated-time identical.
        bed.quiesce()
        ops["committed_ops"] = float(bed.app.region.ops_committed)
    return ops


def batching_comparison(scale: str = "smoke",
                        batch_sizes: Sequence[int] = (1, 16),
                        seed: int = DEFAULT_SEED,
                        ) -> Dict[int, Dict[str, object]]:
    """Pacon committed-op throughput as a function of commit batch size.

    Runs the fig. 7 workload once per batch size on identically seeded
    clusters and measures the commit pipeline end to end: total committed
    operations over the simulated time to fully drain (quiesce).  §III.E
    convergence demands the final DFS namespace be identical regardless of
    batch size, so each run also returns a digest of the namespace
    structure — callers should assert the digests match.
    """
    params = SCALES[scale]
    nodes = params["node_counts"][0]
    out: Dict[int, Dict[str, object]] = {}
    for batch_size in batch_sizes:
        bed = make_testbed("pacon", n_apps=1, nodes_per_app=nodes,
                           clients_per_node=params["cpn"],
                           commit_batch_size=batch_size, seed=seed)
        config = MdtestConfig(workdir="/app",
                              items_per_client=params["items"],
                              phases=PHASES)
        run_mdtest(bed.env, bed.clients, config)
        bed.quiesce()
        region = bed.app.region
        elapsed = bed.env.now
        out[batch_size] = {
            "committed_ops": region.ops_committed,
            "elapsed": elapsed,
            "committed_ops_per_sec": region.ops_committed / elapsed,
            "namespace_digest": _namespace_digest(bed.dfs),
        }
    return out


def _namespace_digest(dfs) -> str:
    """Digest of the DFS namespace *structure* (paths, kinds, modes).

    Inode numbers and timestamps depend on commit interleaving and are
    excluded on purpose: §III.E promises the same *namespace*, not the
    same commit schedule.
    """
    entries = sorted(
        (path, "dir" if inode.is_dir else "file", inode.mode, inode.size)
        for path, inode in dfs.namespace.walk("/"))
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
    return digest.hexdigest()


@experiment("fig07", "Single-application throughput (shared dir, depth 1)",
            SCALES, observable=True)
def run(out, params, seed, hub):
    committed_total = 0.0
    for system in SYSTEMS:
        for nodes in params["node_counts"]:
            ops = single_app_point(system, nodes, params["cpn"],
                                   params["items"], hub=hub, seed=seed)
            committed_total += ops.get("committed_ops", 0.0)
            out.add(system=system, nodes=nodes,
                    clients=nodes * params["cpn"],
                    mkdir=round(ops["mkdir"]),
                    create=round(ops["create"]),
                    stat=round(ops["stat"]))
    out.derive("pacon_committed_ops", committed_total)
    # Ratio notes at the largest point (the paper's headline comparisons).
    biggest = params["node_counts"][-1]
    by = {s: out.where(system=s, nodes=biggest)[0] for s in SYSTEMS}
    for phase in ("create", "stat"):
        p, b, i = (by["pacon"][phase], by["beegfs"][phase],
                   by["indexfs"][phase])
        out.derive(f"{phase}_speedup_vs_beegfs", round(p / b, 3))
        out.derive(f"{phase}_speedup_vs_indexfs", round(p / i, 3))
        out.note(f"{phase} at {biggest} nodes: Pacon/BeeGFS ="
                 f" {p / b:.1f}x (paper: >{76.4 if phase == 'create' else 6.5}x),"
                 f" Pacon/IndexFS = {p / i:.1f}x"
                 f" (paper: >{8.8 if phase == 'create' else 2.6}x)")
    if hub is not None:
        out.metrics = hub.export()

