"""Fig. 7: single-application performance (mkdir / create / random stat).

mdtest on 2–16 client nodes × 20 clients per node, shared parent
directory, namespace depth 1; Pacon runs one consistent region.  Paper
headlines: Pacon >76.4× BeeGFS and >8.8× IndexFS on writes, >6.5× BeeGFS
and >2.6× IndexFS on random stat.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bench.report import experiment
from repro.bench.systems import SYSTEMS, make_testbed
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["run", "SCALES", "single_app_point"]

SCALES: Dict[str, Dict] = {
    "smoke": {"node_counts": [2], "cpn": 5, "items": 20},
    "ci": {"node_counts": [2, 4], "cpn": 10, "items": 25},
    "paper": {"node_counts": [2, 4, 8, 16], "cpn": 20, "items": 100},
}

PHASES = ("mkdir", "create", "stat")


def single_app_point(system: str, nodes: int, cpn: int,
                     items: int, hub: Optional[object] = None, *,
                     seed: int) -> Dict[str, float]:
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

