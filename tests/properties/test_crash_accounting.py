"""Property (§III.G): a node crash loses ops, it never miscounts them, and
no op outlives a lost dependency.

A small fixed-seed world runs paced create / rm / chmod / rmdir units
from two clients while one node (each of the three, in turn) crashes at
a drawn instant and recovers a drawn while later.  Wherever the crash lands —
mid-coalesce, between a commit and its post-commit bookkeeping, with ops
resubmitted or replayed but their segment not yet closed, or between a
client's cache write and its publish — every submitted op is accounted
exactly once::

    ops_submitted == Σ(committed + discarded + coalesced) + lost

no commit process is left believing work is in flight, and the
version-lag ledger of the hub-attached region drains to zero.  An op
leaves ``CommitProcess._unsettled`` the moment it has an outcome
(``_settle``), so ``abort`` hands back exactly the ops that had none:
one that settled inside an interrupted segment is counted under its
outcome (or as pending), never also as lost in flight.

The clients behave like a real client library: an op that hits a dead
node is retried until the node is back, and a step whose target is gone
(or already there, after a half-applied attempt) is moot.  So a client
resumes the units a crash interrupted — it removes a file whose create
was lost, or creates under a directory whose mkdir was lost.  The
lost-op fence in ``fail_node`` is what lets that converge: the lost
creation's surviving cache record goes, and the ops queued behind it are
discarded instead of resubmitting forever (``CommitStalled``).  The
second property is the fence's own: at quiescence every surviving cache
record has a committed creator (and every tombstone a removal that
reached the DFS), and agrees with the DFS — a sync op (rmdir, chmod)
whose reply a crash lost is settled against the DFS, so no record
outlives the entry it removed, or keeps a mode the DFS never took.
"""

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.core.failure import fail_node, recover_node
from repro.dfs.errors import FileExists, FileNotFound
from repro.obs.hub import MetricsHub
from repro.sim.network import NodeDownError
from tests.core.conftest import make_world

#: A drawn crash instant and outage length; each example crashes every
#: node in turn, so all three victims see the same instants.
CRASHES = {"crash_at": st.floats(min_value=50e-6, max_value=4e-3),
           "down_for": st.floats(min_value=100e-6, max_value=2e-3)}
VICTIMS = (0, 1, 2)


def _run(crash_at: float, down_for: float, victim: int):
    w = make_world(n_nodes=3, seed=11)
    env, region = w.cluster.env, w.region
    MetricsHub().attach_region(region)
    clients = [w.client, w.new_client(1)]
    lost = []

    def step(op):
        """One client op, retried while its node (or a peer) is down."""
        while True:
            try:
                yield from op()
                return
            except (FileExists, FileNotFound):
                return
            except NodeDownError:
                yield 1e-3

    def load(client, base):
        for i in range(16):
            path = f"{base}/f{i:02d}"
            if i % 8 == 4:
                tmp = f"{base}/tmp{i}"
                yield from step(lambda: client.mkdir(tmp))
                yield from step(lambda: client.create(f"{tmp}/x"))
                yield from step(lambda: client.chmod(f"{tmp}/x", 0o600))
                yield from step(lambda: client.rmdir(tmp))
            elif i % 3 == 2:
                yield from step(lambda: client.create(path))
                yield from step(lambda: client.rm(path))
            else:
                yield from step(lambda: client.create(path))
            yield 150e-6

    def crash():
        yield crash_at
        lost.append(fail_node(region, w.nodes[victim]).lost_queued_ops)
        yield down_for
        recover_node(region, w.nodes[victim])

    for i, client in enumerate(clients):
        w.run(client.mkdir(f"/app/c{i}"))
    w.quiesce()
    procs = [env.process(load(c, f"/app/c{i}"), label=f"load{i}")
             for i, c in enumerate(clients)]
    procs.append(env.process(crash(), label="crash"))

    def driver():
        for proc in procs:
            yield proc
        yield from w.deployment.quiesce(region)

    w.run(driver(), label="driver")
    return w, sum(lost)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CRASHES)
def test_a_crash_at_any_instant_accounts_every_op_once(crash_at, down_for):
    for victim in VICTIMS:
        note(f"victim={victim}")
        w, lost = _run(crash_at, down_for, victim)
        region = w.region
        resolved = sum(cp.committed + cp.discarded + cp.coalesced
                       for cp in region.commit_processes)
        assert region.ops_submitted == resolved + lost
        assert region.total_pending_mutations() == 0
        assert all(not cp._drain and not cp._unsettled
                   for cp in region.commit_processes)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CRASHES)
def test_every_surviving_record_has_a_committed_creator(crash_at, down_for):
    """At quiescence nothing is queued, so a live record's creator
    committed — the DFS holds its path, with the record's mode — or was
    lost, and the fence took the record with it.  A tombstone's removal
    reached the DFS (or a lost rm's tombstone was un-deleted)."""
    for victim in VICTIMS:
        note(f"victim={victim}")
        w, _lost = _run(crash_at, down_for, victim)
        namespace = w.dfs.namespace

        def agrees(path, record):
            if not namespace.exists(path):
                return record["deleted"]
            return (not record["deleted"] and record["mode"]
                    == namespace.getattr(path).mode)

        disagree = [path for shard in w.region.shards
                    for path, record in shard.kv.scan_prefix("/app/")
                    if not agrees(path, record)]
        assert disagree == []
