"""Packaged chaos scenarios: live workload + fault schedule + invariant.

Every scenario runs the *same* seeded world twice:

1. a fault-free **reference** run, whose committed namespace and total
   span calibrate the scenario (faults are scheduled at fractions of the
   reference span, so the schedule always lands inside the workload), and
2. the **faulty** run, with a :class:`~repro.chaos.engine.ChaosEngine`
   injecting faults while the clients and commit pipeline are in motion.

The faulty run must then pass :func:`~repro.chaos.invariants.
check_convergence` against the reference — byte-identical namespace for
loss-free faults (MDS crash, partition, churn), subset-plus-exact-loss-
accounting for destructive node crashes.

The client workload retries on :class:`~repro.sim.network.NodeDownError`
(which covers delivery-time :class:`~repro.sim.network.MessageDropped`),
exactly like a real client library would, so an outage stalls progress
instead of crashing the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosSchedule
from repro.chaos.invariants import (
    Entry,
    InvariantReport,
    check_convergence,
    namespace_entries,
)
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.dfs.errors import FileExists, FileNotFound
from repro.obs.hub import MetricsHub
from repro.obs.incidents import fault_attribution
from repro.obs.slo import Policy, StalenessObjective
from repro.sim.core import run_sync
from repro.sim.network import Cluster, NodeDownError
from repro.sim.rng import DEFAULT_SEED

__all__ = ["SCENARIOS", "ChaosWorld", "ScenarioResult", "build_world",
           "run_scenario", "run_all"]

SCENARIOS = ("mds_crash", "barrier_crash", "partition_heal",
             "cache_churn", "node_crash")

#: Client-side retry pacing for ops that hit a dead/partitioned node.
_RETRY_DELAY = 1e-3
#: The sleep after each workload op (and the faulty run's sample
#: interval): idle gaps in which planned churn can complete.
_PACING = 200e-6
_MAX_RETRIES = 50_000


@dataclass
class ChaosWorld:
    """One freshly built Pacon world a scenario runs against."""

    cluster: Cluster
    dfs: BeeGFS
    deployment: PaconDeployment
    region: Any
    clients: List[Any]

    @property
    def env(self):
        return self.cluster.env


@dataclass
class ScenarioResult:
    """Everything a scenario run proved (or failed to prove)."""

    name: str
    seed: int
    report: InvariantReport
    schedule_signature: Tuple
    fault_records: List[Any]
    lost_ops: int
    replays: int
    dropped: int
    #: Windowed SLO verdicts (``PolicyResult.to_doc()`` dicts) over the
    #: staleness lens: exposure while the fault was live, and whether
    #: staleness returned below bound after recovery.  None when the run
    #: produced no fault window (or no samples at all).
    slo_during: Optional[Dict[str, Any]] = None
    slo_post: Optional[Dict[str, Any]] = None
    #: The faulty run's full metrics export (``pacon.metrics/v4``).  The
    #: incident flight recorder reads it: ``timeline``/``incidents``
    #: sections plus :func:`repro.obs.incidents.fault_attribution` rows.
    #: ``figure chaos`` writes it via ``--metrics-out`` and reports its
    #: attribution.
    metrics_doc: Optional[Dict[str, Any]] = None
    #: Per injected fault: the incidents that blamed it (see
    #: ``fault_attribution``).  None when no hub export was taken.
    attribution: Optional[List[Dict[str, Any]]] = None

    @property
    def slo_ok(self) -> bool:
        """Post-recovery SLO held (during-fault is informational)."""
        return self.slo_post is None or self.slo_post["verdict"] == "pass"

    @property
    def faults_attributed(self) -> bool:
        """Every injected fault is the top suspect of ≥1 incident."""
        return bool(self.attribution) and \
            all(row["attributed"] for row in self.attribution)

    @property
    def ok(self) -> bool:
        return self.report.ok and self.slo_ok


def build_world(seed: int, n_nodes: int, clients_per_node: int,
                hub: Optional[Any] = None) -> ChaosWorld:
    """A small Pacon deployment: a ``/chaos`` region on ``n_nodes``
    nodes over one BeeGFS."""
    cluster = Cluster(seed=seed)
    dfs = BeeGFS(cluster, n_mds=1, n_data=2)
    nodes = cluster.add_nodes(n_nodes, prefix="cn")
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(PaconConfig(workspace="/chaos"),
                                      nodes)
    if hub is not None:
        hub.attach_region(region)
    clients = [deployment.client(region, node)
               for node in nodes for _ in range(clients_per_node)]
    return ChaosWorld(cluster=cluster, dfs=dfs, deployment=deployment,
                      region=region, clients=clients)


# --------------------------------------------------------------- workload
def _with_retry(client, make_op: Callable[[], Any]):
    """Drive one client op, retrying while its node/peer is unreachable.

    ``make_op`` must build a *fresh* operation generator per attempt.
    ``FileExists``/``FileNotFound`` terminate the loop as "moot": after a
    crash the previous attempt may have half-applied (create landed
    before the response dropped) or the op's target may have been
    destroyed with the failed node (parent dir's queued mkdir lost) — in
    both cases the op can never succeed and a real application would
    move on.  Loss accounting stays exact either way because publish is
    the last, purely local step of every client op.
    """
    for _ in range(_MAX_RETRIES):
        try:
            result = yield from make_op()
            return result
        except (FileExists, FileNotFound):
            return None
        except NodeDownError:
            yield _RETRY_DELAY
    raise RuntimeError("client op still failing after"
                       f" {_MAX_RETRIES} retries")


def _client_workload(client, base_dir: str, items: int, rounds: int):
    """One application process: private dir, optional rmdir rounds, files.

    ``rounds`` adds create-then-rmdir cycles of three files on a scratch
    subtree — every rmdir triggers a region barrier, which is what the
    crash-during-barrier scenario needs in flight.  The pacing sleeps
    leave idle gaps so planned churn (quiesce + settle) can complete
    while the workload runs.
    """
    yield from _with_retry(client, lambda: client.mkdir(base_dir))
    for r in range(rounds):
        scratch = f"{base_dir}/round{r}"
        yield from _with_retry(client, lambda s=scratch: client.mkdir(s))
        for j in range(3):
            path = f"{scratch}/tmp{j}"
            yield from _with_retry(client, lambda p=path: client.create(p))
        yield _PACING
        yield from _with_retry(client, lambda s=scratch: client.rmdir(s))
        yield _PACING
    for i in range(items):
        path = f"{base_dir}/f{i:04d}"
        yield from _with_retry(client, lambda p=path: client.create(p))
        yield _PACING


def _drive(world: ChaosWorld, engine: Optional[ChaosEngine], *,
           items: int, rounds: int) -> None:
    """Run the workload (and faults) to completion, then fully settle."""
    env = world.env
    procs = []
    for idx, client in enumerate(world.clients):
        base = f"{world.region.workspace}/c{idx}"
        procs.append(env.process(
            _client_workload(client, base, items, rounds),
            label=f"chaosload:{idx}"))
    if engine is not None:
        engine.start()

    def driver():
        for proc in procs:
            yield proc  # re-raises any workload failure
        if engine is not None:
            yield from engine.wait_done()
        yield from world.deployment.settle(world.region, 500e-6)

    run_sync(env, driver(), label="chaos:driver")


# --------------------------------------------------------------- schedules
def _schedule_for(name: str, world: ChaosWorld,
                  horizon: float) -> ChaosSchedule:
    """Fault schedule for one scenario, placed inside the workload span."""
    schedule = ChaosSchedule(source=name)
    if name == "mds_crash":
        schedule.add("mds_crash", at=0.30 * horizon,
                     duration=0.25 * horizon)
    elif name == "barrier_crash":
        # Crash a region node while rmdir-triggered barrier epochs are in
        # flight; recovery must republish the destroyed barrier markers.
        schedule.add("node_crash", at=0.40 * horizon,
                     duration=0.20 * horizon, target=1)
    elif name == "partition_heal":
        schedule.add("partition", at=0.30 * horizon,
                     duration=0.25 * horizon)
    elif name == "cache_churn":
        schedule.add("cache_churn", at=0.25 * horizon,
                     duration=0.30 * horizon)
    elif name == "node_crash":
        rng = world.cluster.rng.stream("chaos")
        schedule = ChaosSchedule.poisson(
            rng, ("node_crash",), mttf=0.50 * horizon,
            mttr=0.12 * horizon, horizon=0.90 * horizon,
            targets=len(world.region.nodes))
        if not schedule.faults:  # seed drew an empty window: force one
            schedule.add("node_crash", at=0.40 * horizon,
                         duration=0.12 * horizon)
    else:
        raise ValueError(f"unknown scenario {name!r};"
                         f" pick from {SCENARIOS}")
    return schedule


#: Per-scenario workload shape and convergence mode.
_SCENARIO_SPEC: Dict[str, Dict[str, Any]] = {
    # Loss-free faults: namespace must be byte-identical to the
    # fault-free reference run.
    "mds_crash": {"rounds": 0, "require_identical": True},
    "partition_heal": {"rounds": 0, "require_identical": True},
    "cache_churn": {"rounds": 0, "require_identical": True},
    # Destructive faults: subset of the reference + exact accounting.
    "barrier_crash": {"rounds": 2, "require_identical": False},
    "node_crash": {"rounds": 0, "require_identical": False},
}


def run_scenario(name: str, seed: int = DEFAULT_SEED,
                 hub: Optional[Any] = None, items: int = 24,
                 n_nodes: int = 3,
                 clients_per_node: int = 2) -> ScenarioResult:
    """Run one named chaos scenario; see module docstring for the shape."""
    if name not in _SCENARIO_SPEC:
        raise ValueError(f"unknown scenario {name!r};"
                         f" pick from {SCENARIOS}")
    spec = _SCENARIO_SPEC[name]
    rounds = spec["rounds"]

    # 1. Fault-free reference run: calibrates the schedule and pins the
    #    namespace every loss-free fault must reproduce byte-exactly.
    reference = build_world(seed, n_nodes, clients_per_node)
    _drive(reference, None, items=items, rounds=rounds)
    reference_entries: List[Entry] = namespace_entries(
        reference.dfs.namespace, reference.region.workspace)
    horizon = reference.env.now

    # 2. Same seed, same workload — plus the fault schedule.  The faulty
    #    run always carries a hub: the staleness lens has a time axis
    #    (the pending-age gauge) only while one is attached, and the
    #    windowed SLO verdicts below need it.  Observability records but
    #    never yields, so the simulated schedule is unchanged.
    slo_hub = hub
    if slo_hub is None:
        slo_hub = MetricsHub(sample_interval=_PACING)
    world = build_world(seed, n_nodes, clients_per_node, hub=slo_hub)
    schedule = _schedule_for(name, world, horizon)
    engine = ChaosEngine(world.deployment, world.region, schedule)
    _drive(world, engine, items=items, rounds=rounds)

    report = check_convergence(
        world.region, world.dfs,
        reference_entries=reference_entries,
        lost_ops=engine.lost_ops,
        require_identical=spec["require_identical"])
    # The sampler self-exits when the commit queues close, which can be
    # mid-drain; one explicit end-of-run sample pins the converged state
    # so the post-recovery "staleness drained" verdict reads the truth.
    for sampler in slo_hub.samplers:
        sampler.sample_once()
    # One export serves everything downstream: the windowed SLO verdicts,
    # the incident/blame sections it already carries (v4), and the CLI's
    # --metrics-out file — re-exporting would re-run detection twice.
    doc = slo_hub.export()
    slo_during, slo_post = _slo_verdicts(doc, engine, horizon,
                                         world.env.now)
    return ScenarioResult(
        name=name, seed=seed, report=report,
        schedule_signature=schedule.signature(),
        fault_records=list(engine.records),
        lost_ops=engine.lost_ops,
        replays=sum(cp.replays for cp in world.region.commit_processes),
        dropped=world.cluster.network.dropped,
        slo_during=slo_during, slo_post=slo_post,
        metrics_doc=doc, attribution=fault_attribution(doc))


def _slo_verdicts(doc, engine, horizon: float, end: float,
                  ) -> Tuple[Optional[Dict], Optional[Dict]]:
    """During-fault and post-recovery staleness verdicts for one run.

    During the fault window (first injection to last recovery) staleness
    exposure may legitimately reach the outage length — the bound is
    fault-span plus drain slack, so a pass means "staleness never
    exceeded what the outage itself explains".  Post-recovery the lens
    must show convergence: the *final* pending-age sample of the
    recovery window has to return below a small fraction of the run.
    """
    injected = [r.injected_at for r in engine.records
                if r.injected_at is not None]
    recovered = [r.recovered_at for r in engine.records
                 if r.recovered_at is not None]
    if not injected or not recovered:
        return None, None
    t0, t1 = min(injected), max(recovered)
    fault_span = max(0.0, t1 - t0)
    during = Policy("chaos-during", [StalenessObjective(
        "staleness-exposure", bound=fault_span + 0.5 * horizon,
        mode="max")])
    post = Policy("chaos-post", [StalenessObjective(
        "staleness-drained", bound=0.05 * horizon, mode="final")])
    return (during.evaluate(doc, (t0, t1)).to_doc(),
            post.evaluate(doc, (t1, end)).to_doc())


def run_all(seed: int = DEFAULT_SEED, hub: Optional[Any] = None,
            **kwargs) -> Dict[str, ScenarioResult]:
    """Run every packaged scenario; the hub (if any) sees only the last
    scenario's region (each scenario builds a fresh world)."""
    results = {}
    for name in SCENARIOS:
        results[name] = run_scenario(
            name, seed=seed, hub=hub if name == SCENARIOS[-1] else None,
            **kwargs)
    return results
