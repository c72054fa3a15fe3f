"""Extension: per-operation latency distributions.

Benefit 3 of partial consistency (§III.A) is that asynchronous commit
"allows the latency of the metadata servers to be hidden".  The paper only
reports throughput; this extension measures what the claim implies
directly: the client-observed latency distribution of create operations
under a fixed concurrent load, for all three systems.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.report import experiment, summarize
from repro.bench.systems import SYSTEMS, make_testbed
from repro.workloads.mdtest import run_closed_loop

__all__ = ["run", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "cpn": 4, "items": 25},
    "ci": {"nodes": 2, "cpn": 10, "items": 40},
    "paper": {"nodes": 16, "cpn": 20, "items": 100},
}


def measure_create_latency(system: str, nodes: int, cpn: int,
                           items: int, seed: int) -> List[float]:
    """Every client-observed create latency of one concurrent run."""
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, seed=seed)
    env = bed.env
    samples: List[float] = []

    def body(rank, client):
        for i in range(items):
            t0 = env.now
            yield from client.create(f"/app/f.{rank}.{i}")
            samples.append(env.now - t0)

    run_closed_loop(env, bed.clients, body)
    return samples


@experiment("latency", "Create latency distribution under load (extension)",
            SCALES)
def run(out, params, seed):
    stats = {}
    for system in SYSTEMS:
        summary = summarize(measure_create_latency(
            system, params["nodes"], params["cpn"], params["items"],
            seed=seed))
        stats[system] = summary
        out.add(system=system,
                mean_us=round(summary["mean"] * 1e6, 1),
                p50_us=round(summary["p50"] * 1e6, 1),
                p99_us=round(summary["p99"] * 1e6, 1),
                max_us=round(summary["max"] * 1e6, 1))
    ratio = stats["beegfs"]["p50"] / stats["pacon"]["p50"]
    out.derive("p50_speedup_vs_beegfs", round(ratio, 3))
    out.derive("pacon_p99_us", round(stats["pacon"]["p99"] * 1e6, 1))
    out.note(f"median create latency: Pacon is {ratio:.0f}x lower than"
             " BeeGFS — asynchronous commit hides the MDS entirely"
             " (paper §III.A Benefit 3)")
