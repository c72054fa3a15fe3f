"""Chaos-scenario bench driver: fault injection as a tracked experiment.

Runs every packaged :mod:`repro.chaos.scenarios` scenario at a named
scale and reports, per scenario, what the invariant checker proved: the
convergence verdict, whether every injected fault was blamed by the
incident flight recorder, faults injected, ops lost to crashes, MDS
replays absorbed by commit-token dedup, messages dropped by the
delivery-time network semantics, and incidents detected.  All of these
are **simulated metrics** — two same-seed runs produce byte-identical
rows — so the snapshot (``benchmarks/baseline_chaos.json``) gates
fault-handling semantics in CI the same way ``baseline_kernel.json``
gates kernel event counts.  Each scenario's full report (invariant
checks, fault records, SLO objectives, incidents) is one note, and a
scenario that did not converge fails the row
(:meth:`~repro.bench.report.ExperimentResult.fail`).

Not part of ``pacon-bench all`` (``in_all=False``): the default suite
and its baseline stay untouched; ``pacon-bench figure chaos --bench-out``
emits this experiment's own snapshot for its own compare gate.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.bench.report import experiment
from repro.chaos.scenarios import SCENARIOS, run_all
from repro.obs.incidents import format_report

__all__ = ["SCALES", "run"]

#: Workload shape per scale.  ``smoke`` is the CI chaos gate — small
#: enough for seconds, large enough that every fault window overlaps
#: live client traffic.  ``paper`` stretches the span so Poisson
#: node-crash schedules draw several faults.
SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {"items": 24, "n_nodes": 3, "clients_per_node": 2},
    "ci": {"items": 40, "n_nodes": 3, "clients_per_node": 2},
    "paper": {"items": 96, "n_nodes": 4, "clients_per_node": 3},
}


@experiment("chaos", "Fault injection: post-recovery convergence", SCALES,
            in_all=False, observable=True)
def run(out, params, seed, hub):
    """Run all chaos scenarios; one row per scenario.

    A scenario fails the row unless it converged and its staleness
    drained after recovery.  Fault attribution is reported, not failed
    on (the baseline compare holds it at the default seed): a fault that
    only destroyed queued work, or landed inside an incident an earlier
    fault heads, leaves no burn of its own to be blamed for.  The hub
    (if any) observes the last scenario only — see
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
                attributed=int(result.faults_attributed),
                faults=len(result.fault_records),
                lost_ops=result.lost_ops, replays=result.replays,
                net_dropped=result.dropped,
                entries=int(result.report.checks.get("entries", 0)),
                problems=len(result.report.problems),
                incidents=result.metrics_doc["incidents"]["count"])
        out.note(_scenario_report(name, result))
        if not result.report.ok:
            out.fail(f"{name}: did not converge")
        if not result.slo_ok:
            out.fail(f"{name}: staleness did not drain after recovery")
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


def _scenario_report(name: str, result) -> str:
    """What one scenario proved: the invariant report, each fault, each
    windowed SLO objective, and the incident report that blames them."""
    lines = [f"{name}: {result.report}"]
    for rec in result.fault_records:
        lines.append(f"  fault {rec.kind}[{rec.target}]"
                     f" t={rec.injected_at:.6f}->{rec.recovered_at:.6f}"
                     f" lost={rec.lost_ops} {rec.detail}")
    for label, doc in (("during-fault", result.slo_during),
                       ("post-recovery", result.slo_post)):
        for obj in (doc or {}).get("objectives", ()):
            mark = "ok" if obj["ok"] else "VIOLATED"
            lines.append(f"  slo {label} [{mark}] {obj['name']}:"
                         f" {obj['measured']:.6g} <= {obj['target']:.6g}"
                         f" ({obj['metric']})")
    lines.append(format_report(result.metrics_doc))
    return "\n".join(lines)
