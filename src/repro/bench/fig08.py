"""Fig. 8: multi-application performance.

16 client nodes, 320 clients total, 2–16 concurrent applications on
disjoint working directories (nodes evenly divided among them); each app
is one mdtest instance (and, for Pacon, one consistent region).  Paper:
Pacon beats BeeGFS by more than an order of magnitude and IndexFS by more
than 1.07× — the IndexFS gap *narrows* here because separate directories
spread its partitions, so reproducing the narrowing matters as much as
the win.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import experiment
from repro.bench.systems import SYSTEMS, make_testbed
from repro.workloads.mdtest import MdtestConfig, spawn_mdtest

__all__ = ["run", "SCALES", "multi_app_point"]

SCALES: Dict[str, Dict] = {
    "smoke": {"total_nodes": 4, "cpn": 4, "app_counts": [2, 4], "items": 15},
    "ci": {"total_nodes": 8, "cpn": 5, "app_counts": [2, 4, 8], "items": 20},
    "paper": {"total_nodes": 16, "cpn": 20, "app_counts": [2, 4, 8, 16],
              "items": 100},
}

PHASES = ("mkdir", "create", "stat")


def multi_app_point(system: str, n_apps: int, total_nodes: int, cpn: int,
                    items: int, seed: int) -> Dict[str, float]:
    """Run n_apps concurrent mdtests; return overall ops/s per phase."""
    nodes_per_app = max(1, total_nodes // n_apps)
    bed = make_testbed(system, n_apps=n_apps, nodes_per_app=nodes_per_app,
                       clients_per_node=cpn, seed=seed)
    handles = []
    for app in bed.apps:
        config = MdtestConfig(workdir=app.workdir, items_per_client=items,
                              phases=PHASES)
        handles.append(spawn_mdtest(bed.env, app.clients, config))
    # All applications run simultaneously.
    for handle in handles:
        for proc in handle.procs:
            bed.env.run(until=proc)
    results = [h.result() for h in handles]
    overall: Dict[str, float] = {}
    for phase in PHASES:
        total_ops = sum(items * len(app.clients) for app in bed.apps)
        slowest = max(r.phase_elapsed[phase] for r in results)
        overall[phase] = total_ops / slowest if slowest > 0 else 0.0
    return overall


@experiment("fig08", "Multi-application overall throughput (disjoint"
            " workdirs)", SCALES)
def run(out, params, seed):
    for system in SYSTEMS:
        for n_apps in params["app_counts"]:
            ops = multi_app_point(system, n_apps, params["total_nodes"],
                                  params["cpn"], params["items"],
                                  seed=seed)
            out.add(system=system, apps=n_apps,
                    mkdir=round(ops["mkdir"]),
                    create=round(ops["create"]),
                    stat=round(ops["stat"]))
    worst_vs_beegfs = min(
        out.value("create", system="pacon", apps=a)
        / out.value("create", system="beegfs", apps=a)
        for a in params["app_counts"])
    worst_vs_indexfs = min(
        out.value("create", system="pacon", apps=a)
        / out.value("create", system="indexfs", apps=a)
        for a in params["app_counts"])
    out.derive("min_create_speedup_vs_beegfs", round(worst_vs_beegfs, 3))
    out.derive("min_create_speedup_vs_indexfs", round(worst_vs_indexfs, 3))
    out.note(f"create: min Pacon/BeeGFS = {worst_vs_beegfs:.1f}x"
             " (paper: >10x), min Pacon/IndexFS ="
             f" {worst_vs_indexfs:.2f}x (paper: >1.07x — the gap narrows"
             " with many apps)")

