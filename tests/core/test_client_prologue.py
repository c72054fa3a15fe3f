"""The prologue every Table-I client op shares (``PaconClient._enter``).

One parametrized sweep over all nine single-path ops instead of per-op
spot checks: out-of-region paths redirect, and writes into a merged
region are refused before they cost or publish anything.
"""

import pytest

from repro.core.region import ReadOnlyRegion
from repro.sim.core import run_sync
from tests.core.conftest import make_two_region_world

#: op name -> call on a client; ``f`` names a file, ``d`` a directory and
#: ``new`` a free name, all under the directory the test picks.
OPS = {
    "mkdir": lambda c, base: c.mkdir(f"{base}/new"),
    "create": lambda c, base: c.create(f"{base}/new"),
    "rm": lambda c, base: c.rm(f"{base}/f"),
    "getattr": lambda c, base: c.getattr(f"{base}/f"),
    "readdir": lambda c, base: c.readdir(f"{base}/d"),
    "rmdir": lambda c, base: c.rmdir(f"{base}/d"),
    "chmod": lambda c, base: c.chmod(f"{base}/f", 0o600),
    "write": lambda c, base: c.write(f"{base}/f", 0, size=8),
    "read": lambda c, base: c.read(f"{base}/f", 0, 8),
}
WRITE_OPS = ("mkdir", "create", "rm", "rmdir", "chmod", "write")


@pytest.mark.parametrize("op", sorted(OPS))
def test_out_of_region_path_is_one_redirect(world, op):
    ns = world.dfs.namespace
    ns.mkdir("/public", mode=0o777)
    ns.mkdir("/public/d", mode=0o777, uid=1000, gid=1000)
    ns.create("/public/f", uid=1000, gid=1000)
    client = world.client
    # Un-normalized on purpose: the prologue is where the path is cleaned.
    world.run(OPS[op](client, "//public/"))
    assert client.redirects == 1
    assert client.ops == 1
    assert client.last_class == ("none", "sync", "none")
    assert client.last_trace["op"] == op
    assert world.region.ops_submitted == 0


@pytest.mark.parametrize("op", WRITE_OPS)
def test_write_into_merged_region_refused_for_free(op):
    cluster, dfs, dep, ra, rb, ca, cb = make_two_region_world()
    ra.merge(rb)
    before = cluster.env.now
    with pytest.raises(ReadOnlyRegion):
        run_sync(cluster.env, OPS[op](ca, "/appB"))
    assert cluster.env.now == before
    assert ra.ops_submitted == rb.ops_submitted == 0
    assert all(len(q) == 0 for r in (ra, rb) for q in r.queues.queues())
    assert ca.ops == 0 and ca.redirects == 0
