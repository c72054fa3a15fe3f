"""Staleness vs. consistency configuration (the observability figure).

Pacon's partial-consistency bet is that the DFS copy may lag the cache
as long as the lag is bounded and drains.  This driver measures that
bound directly: the fig. 7 workload runs on identically seeded Pacon
clusters while the commit batch size — the knob that trades commit
efficiency against DFS freshness — sweeps upward.  Each point runs with
its own private :class:`MetricsHub` so the consistency lens (staleness
age / version lag per cache tier, visibility latency per op class) is
attributed to exactly one configuration.

Expected shape: larger batches hold mutations in the commit queue
longer, so staleness-at-read age and committed-visibility latency climb
with batch size while the namespace still converges (every run ends
quiesced, pending mutations zero).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import experiment
from repro.bench.systems import make_testbed
from repro.obs.hub import SAMPLE_INTERVAL, MetricsHub
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["run", "SCALES", "staleness_point"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "cpn": 4, "items": 15, "batch_sizes": [1, 8]},
    "ci": {"nodes": 2, "cpn": 8, "items": 25, "batch_sizes": [1, 4, 16]},
    "paper": {"nodes": 4, "cpn": 16, "items": 50,
              "batch_sizes": [1, 4, 16, 64]},
}

PHASES = ("mkdir", "create", "stat")


def staleness_point(nodes: int, cpn: int, items: int, batch_size: int,
                    seed: int) -> Dict[str, object]:
    """One fully instrumented Pacon run at one commit batch size.

    Returns the run's ``consistency`` export section plus the drained
    elapsed time.
    """
    hub = MetricsHub(sample_interval=SAMPLE_INTERVAL)
    bed = make_testbed("pacon", n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, hub=hub,
                       commit_batch_size=batch_size, seed=seed)
    config = MdtestConfig(workdir="/app", items_per_client=items,
                          phases=PHASES)
    run_mdtest(bed.env, bed.clients, config)
    bed.quiesce()
    consistency = hub.consistency_snapshot()
    return {"consistency": consistency, "elapsed": bed.env.now}


@experiment("staleness", "Staleness vs. commit batch size (Pacon, fig. 7"
            " workload)", SCALES)
def run(out, params, seed):
    worst_p99 = 0.0
    for batch_size in params["batch_sizes"]:
        point = staleness_point(params["nodes"], params["cpn"],
                                params["items"], batch_size, seed=seed)
        cons = point["consistency"]
        reads = cons["reads"]
        age = cons["staleness"]["age"]
        vis_committed = cons["visibility"]["committed"]
        vis_global = cons["visibility"]["global"]
        worst_p99 = max(worst_p99, cons["staleness_p99"])
        out.add(batch=batch_size,
                reads_private=reads.get("private", 0),
                reads_shared=reads.get("shared", 0),
                reads_mds=reads.get("mds", 0),
                stale_p50=age.get("p50", 0.0),
                stale_p99=cons["staleness_p99"],
                lag_p99=cons["staleness"]["lag"].get("p99", 0.0),
                vis_commit_p99=vis_committed.get("p99", 0.0),
                vis_global_p99=vis_global.get("p99", 0.0),
                pending_end=cons["pending_mutations"],
                elapsed=point["elapsed"])
    # Headline claims: the worst staleness exposure across the sweep, and
    # convergence (all runs drained — pending mutations zero at the end).
    out.derive("consistency.staleness_p99", worst_p99)
    out.derive("consistency.pending_end_total",
               sum(row["pending_end"] for row in out.rows))
    first, last = out.rows[0], out.rows[-1]
    if first["stale_p99"] > 0:
        out.derive("staleness_growth_vs_batch",
                   round(last["stale_p99"] / first["stale_p99"], 3))
    out.note(f"staleness p99 {first['stale_p99']:.6f}s at batch"
             f" {first['batch']} -> {last['stale_p99']:.6f}s at batch"
             f" {last['batch']}; every run quiesced with"
             f" {last['pending_end']} pending mutations")

