"""Chaos-scenario bench driver: fault injection as a tracked experiment.

Runs every packaged :mod:`repro.chaos.scenarios` scenario at a named
scale and reports, per scenario, what the invariant checker proved: the
convergence verdict, faults injected, ops lost to crashes, MDS replays
absorbed by commit-token dedup, and messages dropped by the
delivery-time network semantics.  All of these are **simulated metrics**
— two same-seed runs produce byte-identical rows — so the snapshot
(``benchmarks/baseline_chaos.json``) gates fault-handling semantics in
CI the same way ``baseline_kernel.json`` gates kernel event counts.

Not part of ``pacon-bench all`` (``in_all=False``): the default suite
and its baseline stay untouched; ``pacon-bench figure chaos --bench-out``
emits this experiment's own snapshot for its own compare gate.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.bench.report import experiment
from repro.chaos.scenarios import SCENARIOS, run_all

__all__ = ["SCALES", "run"]

#: Workload shape per scale.  ``smoke`` is the CI chaos gate — small
#: enough for seconds, large enough that every fault window overlaps
#: live client traffic.  ``paper`` stretches the span so Poisson
#: node-crash schedules draw several faults.
SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {"items": 24, "pacing": 200e-6, "n_nodes": 3,
              "clients_per_node": 2},
    "ci": {"items": 40, "pacing": 200e-6, "n_nodes": 3,
           "clients_per_node": 2},
    "paper": {"items": 96, "pacing": 200e-6, "n_nodes": 4,
              "clients_per_node": 3},
}


@experiment("chaos", "Fault injection: post-recovery convergence", SCALES,
            in_all=False, observable=True)
def run(out, params, seed, hub):
    """Run all chaos scenarios; one row per scenario.

    The hub (if any) observes the last scenario only — see
    :func:`repro.chaos.scenarios.run_all`.
    """
    scenarios_ok = 0
    total_faults = total_lost = total_replays = total_dropped = 0
    for name, result in run_all(seed=seed, hub=hub, **params).items():
        scenarios_ok += int(result.ok)
        total_faults += len(result.fault_records)
        total_lost += result.lost_ops
        total_replays += result.replays
        total_dropped += result.dropped
        out.add(scenario=name, ok=int(result.ok),
                faults=len(result.fault_records),
                lost_ops=result.lost_ops, replays=result.replays,
                net_dropped=result.dropped,
                entries=int(result.report.checks.get("entries", 0)),
                problems=len(result.report.problems))
        for problem in result.report.problems:
            out.note(f"{name}: INVARIANT VIOLATION: {problem}")
    out.derive("scenarios_ok", scenarios_ok)
    out.derive("scenarios_total", len(SCENARIOS))
    out.derive("total_faults", total_faults)
    out.derive("total_lost_ops", total_lost)
    out.derive("total_replays", total_replays)
    out.derive("total_net_dropped", total_dropped)
    out.note(f"{scenarios_ok}/{len(SCENARIOS)} scenarios converged"
             f" ({total_faults} faults, {total_lost} ops lost,"
             f" {total_replays} replays deduplicated,"
             f" {total_dropped} messages dropped)")
