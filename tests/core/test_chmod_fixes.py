"""chmod regressions: deleted records must not resurrect, races fall to DFS."""

import pytest

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.dfs.errors import FileNotFound
from repro.sim.core import run_sync
from repro.sim.network import Cluster


def make_quiet_world():
    """A world whose commit processes are NOT running, so cache records
    keep their uncommitted/deleted flags for as long as the test needs."""
    cluster = Cluster(seed=7)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"client{i}") for i in range(2)]
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(PaconConfig(workspace="/app"), nodes,
                                      start_commit=False)
    client = deployment.client(region, nodes[0])
    return cluster, region, client


def test_chmod_on_deleted_record_raises():
    cluster, region, client = make_quiet_world()
    path = "/app/doomed"
    run_sync(cluster.env, client.create(path), label="create")
    run_sync(cluster.env, client.rm(path), label="rm")
    record = region.cache.peek(path)
    assert record is not None and record["deleted"]

    # Pre-fix this fell through to the miss path and either resurrected
    # the inode from the DFS or registered a special permission for a
    # file that is going away.
    with pytest.raises(FileNotFound):
        run_sync(cluster.env, client.chmod(path, 0o600), label="chmod")

    assert path not in region.permissions.special
    record = region.cache.peek(path)
    assert record is not None and record["deleted"]
    assert record["mode"] != 0o600


def test_chmod_miss_falls_back_to_dfs_copy(world):
    path = "/app/file"
    world.run(world.client.create(path))
    world.quiesce()
    # Simulate the vanished-record race: a concurrent rm commit (or rmdir
    # cleanup) removed the cache entry between gets and cas, so
    # cache.update returned None even though the region had seen the path.
    assert world.region.cache.shard_for(path).kv.delete(path)

    world.run(world.client.chmod(path, 0o640))
    world.quiesce()

    inode = world.dfs.namespace.getattr(path)
    assert inode.mode & 0o777 == 0o640
    refilled = world.region.cache.peek(path)
    assert refilled is not None
    assert refilled["mode"] == 0o640
    assert refilled["committed"]
    assert path in world.region.permissions.special


def test_chmod_missing_everywhere_raises(world):
    with pytest.raises(FileNotFound):
        world.run(world.client.chmod("/app/ghost", 0o600))
    assert "/app/ghost" not in world.region.permissions.special


def test_chmod_cached_record_updates_mode(world):
    path = "/app/plain"
    world.run(world.client.create(path))
    world.run(world.client.chmod(path, 0o604))
    record = world.region.cache.peek(path)
    assert record["mode"] == 0o604
    assert path in world.region.permissions.special
    world.quiesce()
