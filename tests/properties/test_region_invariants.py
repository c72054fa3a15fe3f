"""Property tests for region-level invariants: barrier correctness and
eviction safety under random operation mixes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.sim.core import run_sync
from repro.sim.network import Cluster

WS = "/app"


def build_world(n_nodes=3, cache_capacity=512 * 1024 * 1024):
    cluster = Cluster(seed=23)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"n{i}") for i in range(n_nodes)]
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(
        PaconConfig(workspace=WS, cache_capacity_bytes=cache_capacity),
        nodes)
    clients = [deployment.client(region, node) for node in nodes]
    return cluster, dfs, deployment, region, clients


@given(counts=st.lists(st.integers(min_value=0, max_value=8), min_size=3,
                       max_size=3),
       barrier_client=st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_barrier_exposes_every_earlier_op(counts, barrier_client):
    """readdir (a barrier op) must observe every create that returned
    before it, no matter which client or node they came from."""
    cluster, dfs, deployment, region, clients = build_world()
    expected = []
    for ci, count in enumerate(counts):
        for i in range(count):
            name = f"f{ci}_{i}"
            run_sync(cluster.env, clients[ci].create(f"{WS}/{name}"))
            expected.append(name)
    names = run_sync(cluster.env, clients[barrier_client].readdir(WS))
    assert names == sorted(expected)
    # At barrier completion every commit process drained its epoch.
    for cp in region.commit_processes:
        assert cp.current_epoch == 1


@given(dirs=st.integers(min_value=1, max_value=4),
       files_per_dir=st.integers(min_value=1, max_value=5),
       evict_rounds=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_eviction_never_loses_data(dirs, files_per_dir, evict_rounds):
    """After any number of eviction rounds at any commit state, every
    created entry remains reachable through the client API."""
    cluster, dfs, deployment, region, clients = build_world()
    created = []
    for d in range(dirs):
        run_sync(cluster.env, clients[d % 3].mkdir(f"{WS}/d{d}"))
        for i in range(files_per_dir):
            path = f"{WS}/d{d}/f{i}"
            run_sync(cluster.env, clients[(d + i) % 3].create(path))
            created.append(path)
    evictor = deployment.evictor(region)
    for _ in range(evict_rounds):
        run_sync(cluster.env, evictor.evict_once())
    deployment.quiesce_sync(region)
    reader = clients[0]
    for path in created:
        inode = run_sync(cluster.env, reader.getattr(path))
        assert inode.is_file
    # And the DFS backup copy is complete.
    for path in created:
        assert dfs.namespace.exists(path)


@given(ops=st.lists(st.sampled_from(["create", "rm", "readdir", "getattr"]),
                    min_size=1, max_size=25))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cache_agrees_with_dfs_after_quiesce(ops):
    """After quiescing, the cache's committed view equals the DFS."""
    cluster, dfs, deployment, region, clients = build_world()
    alive = set()
    counter = 0
    client = clients[0]
    for op in ops:
        if op == "create":
            path = f"{WS}/f{counter}"
            counter += 1
            run_sync(cluster.env, client.create(path))
            alive.add(path)
        elif op == "rm" and alive:
            path = sorted(alive)[0]
            run_sync(cluster.env, client.rm(path))
            alive.discard(path)
        elif op == "readdir":
            run_sync(cluster.env, client.readdir(WS))
        elif op == "getattr" and alive:
            run_sync(cluster.env,
                     client.getattr(sorted(alive)[-1]))
    deployment.quiesce_sync(region)
    on_dfs = set(dfs.namespace.readdir(WS))
    assert on_dfs == {p.rsplit("/", 1)[1] for p in alive}
    # Every cached, committed, non-deleted entry exists on the DFS.
    for shard in region.shards:
        for key, record in shard.kv.scan_prefix(WS):
            if record["committed"] and not record["deleted"]:
                assert dfs.namespace.exists(key)
