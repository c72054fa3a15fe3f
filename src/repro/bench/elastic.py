"""Flash-crowd elasticity bench: autoscaled vs. statically provisioned.

The same duration-driven, stat-heavy workload (a diurnal baseline with a
flash-crowd window burst) runs against three provisioning modes of one
identical cluster topology:

* ``static_min`` — the region holds only the base nodes for the whole
  run: cheapest, and the flash crowd saturates the base nodes' NICs;
* ``static_peak`` — the region holds base + warm-pool nodes from t=0:
  best tail latency, paid for every node-second of the run;
* ``autoscale`` — starts at base, and :class:`repro.core.autoscale.
  Autoscaler` grows onto the warm pool when the flash crowd pushes
  utilization over the watermark, then retires the extra nodes when the
  burst passes.

Clients stay pinned to the base nodes in every mode (growth adds cache
shards and commit processes, not application processes), so the three
modes run the *same* op sequence and differ only in membership.  The
latency lever is real physics, not bookkeeping: with more shards, the
consistent-hash ring spreads stat traffic across more NICs/worker pools,
pulling queueing delay off the saturated base nodes.

Reported per mode: getattr p50/p99 over the whole run, **steady-state
flash p99** (samples inside the flash window after a fixed adaptation
exclusion — the window is identical for all three modes, so static runs
are measured by exactly the same clock), and provisioned cost in
node-seconds (the step integral of ``region.membership_log``).  The
adaptation exclusion is the honest part of the story: while the
controller is still reacting (sense streak + grow migrations, ~the
first few ms of the burst) the autoscaled run serves static_min-grade
tail latency, and the whole-run p99 shows that.  Once converged it
serves static_peak-grade latency at a fraction of the cost — which is
what the steady-state column isolates, the way an SRE would measure an
SLO after a scaling event.  The headline derived metrics record both
acceptance axes — steady-state p99 vs. both static modes, and cost vs.
``static_peak``.

All arithmetic is integer/float only (the diurnal curve is a triangle
wave, not a sine) so snapshots are byte-identical across platforms and
the CI compare gate can hold the simulated section exactly.

Not part of ``pacon-bench all`` (``in_all=False``) — like chaos,
``pacon-bench figure elastic --bench-out`` emits this experiment's own
snapshot for its own baseline/compare gate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.report import experiment, summarize
from repro.core.autoscale import AutoscalePolicy, Autoscaler
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.sim.network import Cluster

__all__ = ["SCALES", "MODES", "run"]

MODES = ("static_min", "static_peak", "autoscale")

#: Workload shape per scale.  ``horizon`` is the driven span (simulated
#: seconds); the flash-crowd window sits at fixed fractions of it so
#: every scale exercises ramp-up, saturation, and ramp-down.
SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "n_base": 2, "n_peak": 6, "clients_per_node": 10,
        "files_per_client": 4, "horizon": 0.10,
        "base_think": 400e-6, "flash_think": 5e-6,
        "flash_start": 0.45, "flash_len": 0.30, "diurnal_amp": 0.3,
        "setup_pacing": 600e-6, "sample_interval": 0.5e-3,
        "adaptation_exclusion": 10e-3,
    },
    "ci": {
        "n_base": 2, "n_peak": 6, "clients_per_node": 10,
        "files_per_client": 4, "horizon": 0.14,
        "base_think": 400e-6, "flash_think": 5e-6,
        "flash_start": 0.45, "flash_len": 0.30, "diurnal_amp": 0.3,
        "setup_pacing": 600e-6, "sample_interval": 0.5e-3,
        "adaptation_exclusion": 10e-3,
    },
    "paper": {
        "n_base": 3, "n_peak": 9, "clients_per_node": 12,
        "files_per_client": 6, "horizon": 0.25,
        "base_think": 400e-6, "flash_think": 5e-6,
        "flash_start": 0.45, "flash_len": 0.30, "diurnal_amp": 0.3,
        "setup_pacing": 600e-6, "sample_interval": 1e-3,
        "adaptation_exclusion": 15e-3,
    },
}


def _think(now: float, params: Dict[str, Any]) -> float:
    """Per-op think time at simulated time ``now``.

    Baseline load follows a one-period triangle "diurnal" wave (pure
    arithmetic — no libm, so cross-platform byte-identical), and the
    flash-crowd window multiplies load by dividing think time to near
    zero: inside the window clients issue back-to-back stats.
    """
    horizon = params["horizon"]
    x = min(now / horizon, 1.0)
    flash_start = params["flash_start"]
    if flash_start <= x < flash_start + params["flash_len"]:
        return params["flash_think"]
    amp = params["diurnal_amp"]
    tri = 1.0 - abs(2.0 * x - 1.0)           # 0 at the edges, 1 mid-run
    load = (1.0 - amp) + 2.0 * amp * tri     # in [1-amp, 1+amp]
    return params["base_think"] / load


def _client_loop(client, base_dir: str, params: Dict[str, Any],
                 steady: List[float]):
    """Setup (private dir + files), then stat-loop until the horizon.

    Duration-driven on purpose: every provisioning mode spans the same
    simulated time, so node-seconds compare apples to apples and the
    flash window hits identically.  Stat latencies whose op started
    inside the steady-state flash window (flash start + adaptation
    exclusion .. flash end — the same wall-clock window in every mode)
    are appended to ``steady``."""
    env = client.env
    files = params["files_per_client"]
    horizon = params["horizon"]
    window_lo = (params["flash_start"] * horizon
                 + params["adaptation_exclusion"])
    window_hi = (params["flash_start"] + params["flash_len"]) * horizon
    yield from client.mkdir(base_dir)
    for i in range(files):
        yield from client.create(f"{base_dir}/f{i:04d}")
        yield params["setup_pacing"]
    i = 0
    while env.now < horizon:
        t0 = env.now
        yield from client.getattr(f"{base_dir}/f{i % files:04d}")
        if window_lo <= t0 < window_hi:
            steady.append(env.now - t0)
        i += 1
        yield _think(env.now, params)


def _autoscale_config(params: Dict[str, Any]) -> PaconConfig:
    return PaconConfig(workspace="/elastic", autoscale=AutoscalePolicy(
        min_nodes=params["n_base"],
        max_nodes=params["n_peak"],
        interval=0.5e-3,
        cooldown=2e-3,
        util_high=0.60,
        util_low=0.25,
        # Clients stay pinned to the base nodes, publishing only to the
        # local commit queue — growth adds cache/NIC capacity, not MDS or
        # commit throughput.  A backlog-triggered grow here would quiesce
        # against an MDS-bound drain and stall the controller, so this
        # bench parks the backlog watermark out of reach and lets the
        # utilization signal (the one growth can actually fix) drive.
        backlog_high=1000.0,
        backlog_low=8.0,
        up_consecutive=2,
        down_consecutive=4,
    ))


def _run_mode(mode: str, params: Dict[str, Any], seed: int,
              hub: Optional[MetricsHub] = None) -> Dict[str, Any]:
    """One full world build + drive for one provisioning mode."""
    own_hub = hub if hub is not None else MetricsHub(
        sample_interval=params["sample_interval"])
    cluster = Cluster(seed=seed)
    dfs = BeeGFS(cluster, n_mds=1, n_data=2)
    base = [cluster.add_node(f"en{i}") for i in range(params["n_base"])]
    # The warm pool exists (idle) in every mode, so cluster topology —
    # and therefore the DES event sequence feeding each client op — is
    # identical across modes.
    pool = [cluster.add_node(f"ep{i}")
            for i in range(params["n_peak"] - params["n_base"])]
    config = _autoscale_config(params)
    deployment = PaconDeployment(cluster, dfs)
    region_nodes = list(base) + (list(pool) if mode == "static_peak"
                                 else [])
    region = deployment.create_region(config, region_nodes)
    own_hub.attach_region(region)
    clients = [deployment.client(region, node) for node in base
               for _ in range(params["clients_per_node"])]
    scaler = None
    if mode == "autoscale":
        warm = iter(pool)
        scaler = Autoscaler(deployment, region,
                            node_factory=lambda: next(warm))
        scaler.start()
    env = cluster.env
    steady: List[float] = []
    procs = [env.process(_client_loop(client, f"/elastic/c{idx:02d}",
                                      params, steady),
                         label=f"elastic:{mode}:c{idx}")
             for idx, client in enumerate(clients)]

    def driver():
        for proc in procs:
            yield proc  # re-raises any workload failure
        yield from deployment.quiesce(region)
        region.close()

    run_sync(env, driver(), label=f"elastic:{mode}")
    env.run()  # drain (commit/sampler/autoscaler processes exit)
    own_hub.stop_samplers()
    span = env.now
    stats = own_hub.stats.sketch("client.op.getattr.latency").summary()
    peak_nodes = max(count for _, count in region.membership_log)
    row = {
        "mode": mode,
        "nodes_start": len(region_nodes),
        "nodes_peak": peak_nodes,
        "node_seconds": round(region.node_seconds(until=span), 6),
        "stats_ops": int(stats["count"]),
        "p50_us": round(stats["p50"] * 1e6, 3),
        "p99_us": round(stats["p99"] * 1e6, 3),
        "steady_ops": len(steady),
        "steady_p99_us": round(summarize(steady)["p99"] * 1e6, 3),
        "committed": region.ops_committed,
        "scale_ups": scaler.scale_ups if scaler else 0,
        "scale_downs": scaler.scale_downs if scaler else 0,
        "migrated": sum(a.moved for a in scaler.actions) if scaler else 0,
    }
    if scaler is not None and scaler.failed:
        row["scale_failed"] = scaler.failed
    return row


@experiment("elastic", "Flash crowd: autoscaled vs static provisioning",
            SCALES, in_all=False, observable=True)
def run(out, params, seed, hub):
    """Run the flash-crowd workload under all three provisioning modes.

    ``hub``, when given, observes the ``autoscale`` mode's world (the
    interesting one: it has the ``autoscale.*`` series and actions); the
    static modes always record into private hubs.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for mode in MODES:
        row = _run_mode(mode, params, seed,
                        hub=hub if mode == "autoscale" else None)
        rows[mode] = row
        out.add(**row)
    sp99_min = rows["static_min"]["steady_p99_us"]
    sp99_peak = rows["static_peak"]["steady_p99_us"]
    sp99_auto = rows["autoscale"]["steady_p99_us"]
    cost_min = rows["static_min"]["node_seconds"]
    cost_peak = rows["static_peak"]["node_seconds"]
    cost_auto = rows["autoscale"]["node_seconds"]
    out.derive("steady_p99_speedup_vs_static_min",
               round(sp99_min / sp99_auto, 4) if sp99_auto else 0.0)
    out.derive("steady_p99_ratio_vs_static_peak",
               round(sp99_auto / sp99_peak, 4) if sp99_peak else 0.0)
    out.derive("cost_ratio_vs_static_peak",
               round(cost_auto / cost_peak, 4) if cost_peak else 0.0)
    out.derive("node_seconds_saved_vs_peak",
               round(cost_peak - cost_auto, 6))
    out.derive("whole_run_p99_ratio_vs_static_min",
               round(rows["autoscale"]["p99_us"]
                     / rows["static_min"]["p99_us"], 4)
               if rows["static_min"]["p99_us"] else 0.0)
    out.derive("scale_ups", rows["autoscale"]["scale_ups"])
    out.derive("scale_downs", rows["autoscale"]["scale_downs"])
    out.note(f"steady-state flash p99: autoscale {sp99_auto:.0f}us vs"
             f" static_min {sp99_min:.0f}us / static_peak"
             f" {sp99_peak:.0f}us; cost {cost_auto:.4f} node-s vs min"
             f" {cost_min:.4f} / peak {cost_peak:.4f}")
