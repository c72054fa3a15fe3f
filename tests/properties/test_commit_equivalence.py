"""Property test for the §III.E commit-order equivalence theorem.

The paper proves that non-dependent operations (create/mkdir/rm) need no
temporal ordering at commit time: as long as each queue resubmits
operations rejected by the namespace conventions, *any* distribution of a
valid operation sequence across independent per-node queues converges to
the same DFS namespace as committing the sequence in temporal order.

Here hypothesis generates random valid operation sequences, executes them
through real Pacon clients spread over several nodes (so the commit
machinery sees genuinely independent queues with resubmission), and
compares the final DFS namespace against a sequential oracle.
"""

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.sim.network import Cluster

WS = "/app"


@st.composite
def op_sequences(draw) -> List[Tuple[str, str]]:
    """A valid temporal sequence of create/mkdir/rm under the conventions."""
    n_ops = draw(st.integers(min_value=1, max_value=30))
    dirs: List[str] = [WS]
    files: List[str] = []
    used_names: Set[str] = set()
    ops: List[Tuple[str, str]] = []
    counter = 0
    for _ in range(n_ops):
        choices = ["mkdir", "create"]
        if files:
            choices.append("rm")
            choices.append("recreate")
        op = draw(st.sampled_from(choices))
        if op == "mkdir":
            parent = draw(st.sampled_from(dirs))
            path = f"{parent}/d{counter}"
            counter += 1
            dirs.append(path)
            ops.append(("mkdir", path))
        elif op == "create":
            parent = draw(st.sampled_from(dirs))
            path = f"{parent}/f{counter}"
            counter += 1
            files.append(path)
            ops.append(("create", path))
        elif op == "rm":
            path = draw(st.sampled_from(files))
            files.remove(path)
            used_names.add(path)
            ops.append(("rm", path))
        else:  # recreate a previously removed name
            candidates = sorted(used_names)
            if not candidates:
                continue
            path = draw(st.sampled_from(candidates))
            used_names.discard(path)
            files.append(path)
            ops.append(("create", path))
    return ops


def oracle_namespace(ops: List[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Apply the sequence in temporal order to a model; return final set."""
    state: Dict[str, str] = {WS: "dir"}
    for op, path in ops:
        if op == "mkdir":
            state[path] = "dir"
        elif op == "create":
            state[path] = "file"
        elif op == "rm":
            del state[path]
    state.pop(WS)
    return set(state.items())


def dfs_namespace(dfs: BeeGFS) -> Set[Tuple[str, str]]:
    out = set()
    for path, inode in dfs.namespace.walk(WS):
        if path == WS:
            continue
        out.add((path, "dir" if inode.is_dir else "file"))
    return out


@given(ops=op_sequences(), node_picks=st.lists(
    st.integers(min_value=0, max_value=3), min_size=30, max_size=30),
    data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_independent_commit_converges_to_temporal_order(ops, node_picks,
                                                        data):
    cluster = Cluster(seed=17)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"n{i}") for i in range(4)]
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(
        PaconConfig(workspace=WS, parent_check=True), nodes)
    clients = [deployment.client(region, node) for node in nodes]

    # Execute the temporal sequence, each op from a pseudo-random client:
    # the cache (primary copy) sees the valid order, while the per-node
    # commit queues each get an arbitrary subsequence.
    for i, (op, path) in enumerate(ops):
        client = clients[node_picks[i % len(node_picks)]]
        if op == "mkdir":
            run_sync(cluster.env, client.mkdir(path))
        elif op == "create":
            run_sync(cluster.env, client.create(path))
        else:
            run_sync(cluster.env, client.rm(path))

    deployment.quiesce_sync(region)
    assert dfs_namespace(dfs) == oracle_namespace(ops)
    # Resubmission is a permitted mechanism, stalling is not.
    for cp in region.commit_processes:
        assert cp.idle


@pytest.mark.parametrize("batch_size", [1, 4, 32])
@given(ops=op_sequences(), node_picks=st.lists(
    st.integers(min_value=0, max_value=3), min_size=30, max_size=30))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_commit_converges_to_temporal_order(batch_size, ops,
                                                    node_picks):
    """§III.E holds for every commit batch size — size 1 without
    create+rm coalescing, larger sizes with it — and the pipeline accounts
    for every published op exactly once (committed, discarded, or
    coalesced)."""
    cluster = Cluster(seed=23)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"n{i}") for i in range(4)]
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(
        PaconConfig(workspace=WS, parent_check=True,
                    commit_batch_size=batch_size), nodes)
    hub = MetricsHub()
    hub.attach_region(region)
    clients = [deployment.client(region, node) for node in nodes]

    for i, (op, path) in enumerate(ops):
        client = clients[node_picks[i % len(node_picks)]]
        if op == "mkdir":
            run_sync(cluster.env, client.mkdir(path))
        elif op == "create":
            run_sync(cluster.env, client.create(path))
        else:
            run_sync(cluster.env, client.rm(path))

    deployment.quiesce_sync(region)
    assert dfs_namespace(dfs) == oracle_namespace(ops)
    for cp in region.commit_processes:
        assert cp.idle
    counters = hub.stats.counters()
    published = counters.get("commit.published", 0)
    assert published == len(ops)
    assert published == (counters.get("commit.committed", 0)
                         + counters.get("commit.discarded", 0)
                         + counters.get("commit.coalesced", 0))
