"""Fig. 12: MADbench2 runtime breakdown (Pacon vs BeeGFS).

16 nodes × 16 processes, one 4 MB file per process (256 files total).
This is a data-intensive workload: the paper's point is that Pacon does
*not* change overall runtime (files exceed the small-file threshold so
reads/writes are redirected to BeeGFS), and only the "init" (file
creation) share shrinks slightly.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import experiment
from repro.bench.systems import make_testbed
from repro.workloads.madbench import MadbenchConfig, run_madbench

__all__ = ["run", "SCALES", "madbench_point"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "procs_per_node": 2,
              "file_size": 512 * 1024, "iterations": 2},
    "ci": {"nodes": 4, "procs_per_node": 4,
           "file_size": 1 * 1024 * 1024, "iterations": 3},
    "paper": {"nodes": 16, "procs_per_node": 16,
              "file_size": 4 * 1024 * 1024, "iterations": 4},
}


def madbench_point(system: str, nodes: int, procs_per_node: int,
                   file_size: int, iterations: int,
                   seed: int):
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=procs_per_node,
                       workdir_base="/madbench", seed=seed)
    config = MadbenchConfig(workdir="/madbench", file_size=file_size,
                            iterations=iterations)
    result = run_madbench(bed.env, bed.clients, config)
    bed.quiesce()
    return result


@experiment("fig12", "MADbench2 breakdown (normalized to BeeGFS total"
            " runtime)", SCALES)
def run(out, params, seed):
    results = {}
    for system in ("beegfs", "pacon"):
        results[system] = madbench_point(
            system, params["nodes"], params["procs_per_node"],
            params["file_size"], params["iterations"], seed=seed)
    norm = results["beegfs"].total_time
    for system in ("beegfs", "pacon"):
        r = results[system]
        shares = r.shares()
        out.add(system=system,
                total_norm=round(r.total_time / norm, 3),
                init_pct=round(shares["init"] * 100, 2),
                write_pct=round(shares["write"] * 100, 1),
                read_pct=round(shares["read"] * 100, 1),
                other_pct=round(shares["other"] * 100, 1))
    ratio = results["pacon"].total_time / norm
    out.derive("total_runtime_ratio", round(ratio, 4))
    out.note(f"Pacon/BeeGFS total runtime = {ratio:.3f}"
             " (paper: almost the same — data-intensive scenario)")
    init_b = results["beegfs"].init_time
    init_p = results["pacon"].init_time
    out.derive("init_time_ratio", round(init_p / init_b, 4))
    out.note(f"init (creation) time: Pacon/BeeGFS = {init_p / init_b:.2f}"
             " (paper: Pacon slightly smaller)")

