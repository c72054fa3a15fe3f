"""Extension: robustness of the paper's conclusions to the cost model.

The reproduction's absolute numbers depend on calibrated constants; the
*conclusions* should not.  This driver perturbs the two most influential
constants — per-message network overhead and MDS service time — by
substantial factors and re-measures the headline comparison (creation
throughput, Pacon vs BeeGFS vs IndexFS).  The orderings the paper's
abstract rests on must survive every perturbation.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import experiment
from repro.bench.systems import create_throughput
from repro.sim.costs import CostModel

__all__ = ["run", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"nodes": 2, "cpn": 4, "items": 15,
              "factors": [0.5, 1.0, 2.0]},
    "ci": {"nodes": 2, "cpn": 8, "items": 25,
           "factors": [0.5, 1.0, 2.0]},
    "paper": {"nodes": 8, "cpn": 20, "items": 60,
              "factors": [0.25, 0.5, 1.0, 2.0, 4.0]},
}

PERTURBATIONS = {
    "network": lambda c, f: c.with_overrides(
        net_msg_overhead=c.net_msg_overhead * f,
        net_latency=c.net_latency * f,
        local_loopback=c.local_loopback * f),
    "mds": lambda c, f: c.with_overrides(
        mds_op_service=c.mds_op_service * f,
        mds_read_service=c.mds_read_service * f,
        mds_lookup_service=c.mds_lookup_service * f),
}


@experiment("sensitivity", "Conclusion robustness under cost-model"
            " perturbation", SCALES)
def run(out, params, seed):
    base = CostModel.tianhe2_like()
    orderings_hold = True
    for knob, perturb in PERTURBATIONS.items():
        for factor in params["factors"]:
            costs = perturb(base, factor)
            ops = {system: create_throughput(
                       system, params["nodes"], params["cpn"],
                       params["items"], costs=costs, seed=seed)
                   for system in ("beegfs", "indexfs", "pacon")}
            # The paper's core claim: Pacon beats both baselines.  (The
            # IndexFS-vs-BeeGFS ordering is scale-dependent: IndexFS only
            # overtakes once GIGA+ splitting spreads the hot directory,
            # which needs paper-sized entry counts.)
            ordering_ok = (ops["pacon"] > ops["indexfs"]
                           and ops["pacon"] > ops["beegfs"])
            orderings_hold = orderings_hold and ordering_ok
            out.add(knob=knob, factor=factor,
                    beegfs=round(ops["beegfs"]),
                    indexfs=round(ops["indexfs"]),
                    pacon=round(ops["pacon"]),
                    pacon_vs_beegfs=round(ops["pacon"] / ops["beegfs"], 1),
                    pacon_wins="yes" if ordering_ok else "NO")
    out.derive("orderings_hold", 1.0 if orderings_hold else 0.0)
    out.derive("min_pacon_vs_beegfs",
               min(row["pacon_vs_beegfs"] for row in out.rows))
    out.note("the core claim (Pacon > both baselines on creation)"
             + (" holds under every perturbation tested"
                if orderings_hold else " is VIOLATED somewhere — see rows"))
