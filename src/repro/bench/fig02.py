"""Fig. 2 (motivation): path traversal cost on BeeGFS and IndexFS.

mdtest builds a namespace with fanout 5; the experiment measures the
throughput of randomly stating the *leaf directories* as depth grows from
3 to 6.  The paper reports >47 % loss at depth 6 (IndexFS) and more for
BeeGFS, attributing it to per-level network I/O.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import ExperimentResult, experiment
from repro.bench.systems import DEFAULT_SEED, make_testbed
from repro.workloads.mdtest import build_tree, run_random_stat

__all__ = ["run", "SCALES", "depth_sweep", "stat_throughput_at_depth"]

SCALES: Dict[str, Dict] = {
    "smoke": {"depths": [3, 4], "fanout": 3, "nodes": 2, "cpn": 3,
              "stats_per_client": 30},
    "ci": {"depths": [3, 4, 5, 6], "fanout": 3, "nodes": 2, "cpn": 5,
           "stats_per_client": 40},
    "paper": {"depths": [3, 4, 5, 6], "fanout": 5, "nodes": 16, "cpn": 20,
              "stats_per_client": 250},
}


def stat_throughput_at_depth(system: str, depth: int, fanout: int,
                             nodes: int, cpn: int, stats_per_client: int,
                             lease_ttl: float = 200e-3,
                             seed: int = DEFAULT_SEED) -> float:
    """Build the tree, then measure random leaf-dir stat throughput."""
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, lease_ttl=lease_ttl, seed=seed)
    builder = bed.clients[0]
    leaves = build_tree(bed.env, builder, "/app", fanout=fanout, depth=depth)
    bed.quiesce()
    return run_random_stat(bed.env, bed.clients, leaves, stats_per_client)


def depth_sweep(out: ExperimentResult, params: Dict, seed: int,
                paper: Dict[str, str]) -> None:
    """The Fig. 2 / Fig. 9 sweep: stat throughput per system per depth.

    ``paper`` maps each system to sweep to the loss the paper reports for
    it, quoted in that system's note.
    """
    for system in paper:
        base = None
        for depth in params["depths"]:
            ops = stat_throughput_at_depth(
                system, depth, params["fanout"], params["nodes"],
                params["cpn"], params["stats_per_client"], seed=seed)
            if base is None:
                base = ops
            out.add(system=system, depth=depth, ops_per_sec=round(ops),
                    loss_vs_shallowest_pct=round((1 - ops / base) * 100, 1))
    for system, target in paper.items():
        deepest = out.where(system=system)[-1]
        out.derive(f"{system}_loss_pct_deepest",
                   deepest["loss_vs_shallowest_pct"])
        out.note(f"{system}: {deepest['loss_vs_shallowest_pct']}% loss at"
                 f" depth {deepest['depth']} (paper: {target})")


@experiment("fig02", "Path traversal cost: random stat of leaf dirs vs depth",
            SCALES)
def run(out, params, seed):
    depth_sweep(out, params, seed, {"beegfs": ">47% at depth 6",
                                    "indexfs": ">47% at depth 6"})
