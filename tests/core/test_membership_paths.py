"""One membership path: the region is the registry, the deployment the
mutator, and every observer reads the region.

Four angles on the control plane:

* every grow path (deployment call, chaos churn, autoscaler) leaves a
  hub-attached region's resources tracked under the one label scheme;
* a control-plane pin — literals captured at the commit *before* the
  paths were collapsed — over grow → retire → crash → recover → grow with
  a live workload, and over the smoke elastic run's scaling actions;
* the fault table's halves are callable on their own;
* source guards that keep the collapsed mechanisms from forking again.
"""

import re
from pathlib import Path

import pytest

from repro.bench import elastic
from repro.chaos.engine import ChaosEngine, ChaosSchedule, FaultRecord
from repro.chaos.invariants import namespace_digest, namespace_entries
from repro.core.autoscale import ACTIONS, Autoscaler
from repro.core.failure import fail_node, recover_node
from repro.dfs.errors import FileExists, FileNotFound
from repro.obs.hub import MetricsHub
from repro.sim.network import NodeDownError
from repro.sim.rng import DEFAULT_SEED
from tests.core.conftest import make_world

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ------------------------------------------------- resource-label parity
def _expected_labels(region):
    services = [*region.shards, *region.dfs.mds_servers,
                *region.dfs.data_servers]
    labels = set()
    for service in services:
        labels |= {f"{service.node.name}.cpu", f"{service.node.name}.nic",
                   f"{service.name}.workers"}
    return labels


def _grow_by_deployment(w):
    w.run(w.deployment.grow_region_async(w.region,
                                         w.cluster.add_node("extra")))


def _grow_by_churn(w):
    engine = ChaosEngine(w.deployment, w.region, ChaosSchedule())
    record = FaultRecord("cache_churn", 0, w.cluster.env.now, -1.0)
    w.run(ChaosEngine.FAULTS["cache_churn"][0](engine, record))


def _grow_by_autoscaler(w):
    scaler = Autoscaler(w.deployment, w.region,
                        lambda: w.cluster.add_node("extra"))
    w.run(scaler._act("grow", scaler.node_factory(), "util"))


@pytest.mark.parametrize("grow", [_grow_by_deployment, _grow_by_churn,
                                  _grow_by_autoscaler])
def test_every_grow_path_tracks_the_new_members_resources(grow):
    w = make_world(n_nodes=2)
    hub = MetricsHub(sample_interval=100e-6)
    hub.attach_region(w.region)
    for i in range(8):
        w.run(w.client.create(f"/app/f{i}"))
    grow(w)
    assert len(w.region.nodes) == 3
    w.run(w.client.create("/app/after"))
    w.quiesce()
    hub.stop_samplers()
    labels = _expected_labels(w.region)
    assert set(hub.resource_snapshot()) == labels
    series = hub.stats.series_export()
    assert {f"resource.util[{label}]" for label in labels} <= set(series)
    new_node = w.region.nodes[-1].name
    assert len(series[f"resource.util[{new_node}.nic]"]["t"]) > 0


# ----------------------------------------------------- control-plane pin
def _run_lifecycle():
    """Two paced clients in bursts (create / rm / rmdir, so barrier
    epochs are in flight) while the control plane grows, retires,
    crashes, recovers and grows again."""
    w = make_world(n_nodes=3, seed=11)
    hub = MetricsHub(sample_interval=200e-6)
    hub.attach_region(w.region)
    env = w.cluster.env
    dep, region = w.deployment, w.region
    clients = [w.client, w.new_client(1)]
    spare = [w.cluster.add_node("spare0"), w.cluster.add_node("spare1")]
    moved, lost = [], []

    def retry(make_op):
        while True:
            try:
                return (yield from make_op())
            except (FileExists, FileNotFound):
                return None
            except NodeDownError:
                yield env.timeout(1e-3)

    def load(client, tag):
        base = f"/app/{tag}"
        yield from retry(lambda: client.mkdir(base))
        for burst in range(5):
            for i in range(burst * 8, (burst + 1) * 8):
                yield from retry(lambda: client.create(f"{base}/f{i:02d}"))
                if i % 3 == 2:
                    yield from retry(
                        lambda: client.rm(f"{base}/f{i - 1:02d}"))
                if i % 8 == 4:
                    yield from retry(lambda: client.mkdir(f"{base}/tmp{i}"))
                    yield from retry(
                        lambda: client.create(f"{base}/tmp{i}/x"))
                    yield from retry(lambda: client.rmdir(f"{base}/tmp{i}"))
                yield env.timeout(150e-6)
            yield env.timeout(10e-3)

    def at(t):
        return env.timeout(t - env.now)

    def control():
        yield at(1e-3)
        moved.append((yield from dep.grow_region_async(region, spare[0])))
        yield at(17.5e-3)
        moved.append((yield from dep.retire_node_async(region, spare[0])))
        yield at(35e-3)
        lost.append(fail_node(region, w.nodes[1]).lost_queued_ops)
        yield at(37e-3)
        recover_node(region, w.nodes[1])
        yield at(50e-3)
        moved.append((yield from dep.grow_region_async(region, spare[1])))

    procs = [env.process(load(c, f"c{i}"), label=f"pin:load{i}")
             for i, c in enumerate(clients)]
    procs.append(env.process(control(), label="pin:control"))

    def driver():
        for proc in procs:
            yield proc
        yield from dep.quiesce(region)

    w.run(driver(), label="pin:driver")
    return w, hub, moved, lost


def test_lifecycle_pin():
    """Event count, clock, namespace and accounting of one fixed-seed
    grow → retire → crash → recover → grow run.  The literals predate the
    collapse of the membership paths (the event count is that of NIC
    bookings, two kernel events per remote hop, of cache-worker
    bookings, one per cache RPC, and of one-sleep client prologues): a
    control-plane edit that moves any of them changed the simulated
    schedule, not just the code."""
    w, hub, moved, _lost = _run_lifecycle()
    env, region = w.cluster.env, w.region
    # 4 489 with two prologue sleeps; 141 ops charge client CPU and the
    # batch check in one.
    assert env.processed_events == 4348
    # The crash's lost-op fence drops the surviving records of two lost
    # creates (c1/f17, c1/f20), which later full-shard scans then skip.
    assert env.now == 0.08157747034835787
    assert namespace_digest(namespace_entries(w.dfs.namespace, "/app")) == \
        "9bac18b0f4c4d524a4cfd8e58ed49c0a53aaa16a65b811237c8172ee69ebf0c1"
    assert (region.ops_submitted, region.ops_committed) == (127, 105)
    assert moved == [2, 7, 7]
    assert [n.name for n in region.nodes] == \
        ["client0", "client1", "client2", "spare1"]
    assert region.membership_log == [
        (0.0, 3), (0.0048, 4), (0.025099999999999956, 3),
        (0.05679999999999996, 4)]
    assert (region.client_epoch, region.barrier_epochs_completed,
            region.commit_barrier.parties) == (11, 11, 4)
    assert [(e.source, e.kind, e.label) for e in hub.timeline.events()] == [
        ("membership", "node.joined", "spare0"),
        ("membership", "node.departed", "spare0"),
        ("membership", "node.joined", "spare1")]


def test_lifecycle_accounting_is_exact():
    w, _hub, _moved, lost = _run_lifecycle()
    resolved = sum(cp.committed + cp.discarded + cp.coalesced
                   for cp in w.region.commit_processes)
    assert w.region.ops_submitted == resolved + sum(lost)


def test_smoke_elastic_scaling_actions_pin(monkeypatch):
    """The autoscaler's decisions on the smoke flash-crowd run, action by
    action — finer than the elastic baseline's scale_ups/scale_downs."""
    made = []

    class Recorded(Autoscaler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(elastic, "Autoscaler", Recorded)
    elastic._run_mode("autoscale", elastic.SCALES["smoke"], DEFAULT_SEED)
    (scaler,) = made
    assert [(a.kind, a.node, a.reason, a.ok, a.moved)
            for a in scaler.actions] == [
        ("grow", "ep0", "util", True, 12), ("grow", "ep1", "util", True, 10),
        ("grow", "ep2", "util", True, 7), ("grow", "ep3", "util", True, 10),
        ("retire", "ep3", "idle", True, 25),
        ("retire", "ep2", "idle", True, 17),
        ("retire", "ep1", "idle", True, 20),
        ("retire", "ep0", "idle", True, 25)]
    # 85 870 with two prologue sleeps; 10 589 ops charge client CPU and
    # the batch check in one.
    assert scaler.env.processed_events == 75281
    assert scaler.env.now == 0.10100000000000008


# ------------------------------------------------------- the fault table
@pytest.mark.parametrize("kind", sorted(ChaosEngine.FAULTS))
def test_fault_halves_are_separately_callable(kind):
    """Inject and recover are two calls, not one scheduled process: what
    a state machine needs to interleave faults with client ops."""
    w = make_world(n_nodes=3)
    for i in range(6):
        w.run(w.client.create(f"/app/f{i}"))
    engine = ChaosEngine(w.deployment, w.region, ChaosSchedule())
    inject, recover = ChaosEngine.FAULTS[kind]
    target = 1 if kind == "node_crash" else 0
    record = FaultRecord(kind, target, w.cluster.env.now, -1.0)
    args = inject(engine, record)
    if kind == "cache_churn":
        args = w.run(args)
    assert record.detail
    broken = {"node_crash": lambda: not w.nodes[1].alive,
              "mds_crash": lambda: not w.dfs.mds_servers[0].node.alive,
              "partition": lambda: w.cluster.network.is_partitioned(
                  w.nodes[0], w.dfs.mds_servers[0].node),
              "cache_churn": lambda: len(w.region.nodes) == 4}[kind]
    assert broken()
    step = recover(*args)
    if kind == "cache_churn":
        w.run(step)
    assert not broken()
    w.run(w.client.create("/app/after"))
    w.quiesce()
    assert w.dfs.namespace.exists("/app/after")


# --------------------------------------------------------- source guards
def _sources(*skip):
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC).as_posix() not in skip}


def _functions(source):
    """Top-level and method bodies, split on ``def`` lines."""
    return re.split(r"\n(?= *def )", source)


class TestOneSpellingPerMechanism:
    def test_the_ring_changes_only_in_the_region(self):
        """``add_node``/``remove_node`` are the only ring mutations; the
        cache's constructor fills a fresh ring and nothing else does."""
        hits = {name: len(re.findall(r"ring\.(?:add|remove)\(", text))
                for name, text in _sources("kvstore/dht.py").items()}
        assert {n: c for n, c in hits.items() if c} == \
            {"core/region.py": 2, "core/cache.py": 1}

    def test_one_settled_predicate(self):
        users = [name for name, text in _sources(
                     "chaos/invariants.py").items()
                 for fn in _functions(text)
                 if "commit_barrier.n_waiting" in fn and "client_epoch" in fn]
        assert users == ["core/region.py"]
        region = _sources()["core/region.py"]
        assert region.count("def barriers_settled") == 1

    def test_one_windowed_utilization(self):
        windows = [name for name, text in _sources().items()
                   if re.search(r"\(window \* (self\.)?capacity\)", text)]
        assert windows == ["sim/resources.py"]

    def test_one_commit_process_constructor_call(self):
        calls = {name: text.count("CommitProcess(")
                 for name, text in _sources("core/commit.py").items()}
        assert {n: c for n, c in calls.items() if c} == {"core/deploy.py": 1}

    def test_grow_and_retire_share_the_rehoming_loop(self):
        deploy = _sources()["core/deploy.py"]
        bodies = {re.match(r" *def (\w+)", fn).group(1): fn
                  for fn in _functions(deploy) if fn.lstrip().startswith("def")}
        assert "self._rehome(" in bodies["grow_region_async"]
        assert "self._rehome(" in bodies["retire_node_async"]
        assert deploy.count('"scan_prefix"') == 1

    def test_one_acting_method_and_no_fault_kind_chain(self):
        assert not hasattr(Autoscaler, "_scale_up")
        assert not hasattr(Autoscaler, "_scale_down")
        autoscale = _sources()["core/autoscale.py"]
        assert autoscale.count("yield from getattr(self.deployment") == 1
        assert set(ACTIONS) == {"grow", "retire"}
        engine = _sources()["chaos/engine.py"]
        assert not re.search(r"kind\s*(==|in\b)", engine)
        assert set(ChaosEngine.FAULTS) == {
            "node_crash", "mds_crash", "partition", "cache_churn"}

    def test_observers_keep_no_parallel_membership(self):
        for name, text in _sources().items():
            assert "track_resource" not in text, name
            assert "attach_client" not in text, name
            assert "_commit_started" not in text, name
            assert "_churn_nodes" not in text, name
        assert not hasattr(MetricsHub(), "_clients")
        w = make_world(n_nodes=2)
        assert w.region.shards is w.region.cache.shards
        assert w.region.clients == [w.client]
