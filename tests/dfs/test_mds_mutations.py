"""The MDS's one tokened-mutation path, alone and inside ``commit_batch``.

``handle_mkdir``/``handle_create``/``handle_unlink`` and every entry of a
``handle_commit_batch`` go through the same rule: a token already applied
is a replay (lookup cost, recorded result, no second apply); anything else
charges a service time, applies, records the token.  The handlers are
driven directly (no network hops), so elapsed simulated time is the
service time charged (up to the rounding of ``now - t0``).
"""

import pytest

from repro.dfs.beegfs import BeeGFS
from repro.dfs.errors import FileExists, FSError
from repro.sim.core import Interrupt, run_sync
from repro.sim.network import Cluster

MODES = ("alone", "batch")


@pytest.fixture
def world():
    cluster = Cluster()
    fs = BeeGFS(cluster)
    fs.mkdir_sync("/d")
    return cluster, fs, fs.mds_servers[0]


def apply(env, mds, mode, op, path, token=None):
    """One mutation, alone or as a one-entry batch.

    Returns ``(status, detail, elapsed)`` in ``commit_batch``'s
    vocabulary either way.
    """
    t0 = env.now
    if mode == "alone":
        handler = getattr(mds, f"handle_{op}")
        try:
            status, detail = "ok", run_sync(env, handler(path, token=token))
        except FSError as exc:
            status, detail = "err", exc
    else:
        kwargs = {} if token is None else {"token": token}
        [(status, detail)] = run_sync(
            env, mds.handle_commit_batch([(op, path, kwargs)]))
    return status, detail, env.now - t0


@pytest.mark.parametrize("mode", MODES)
class TestTokenedMutation:
    def test_first_apply_pays_the_op_service_time(self, world, mode):
        cluster, fs, mds = world
        status, record, elapsed = apply(cluster.env, mds, mode, "create",
                                        "/d/f", token=("r", 1, "create"))
        assert status == "ok"
        assert record["ino"] == fs.namespace.getattr("/d/f").ino
        assert elapsed == pytest.approx(cluster.costs.mds_op_service,
                                        rel=1e-9)
        assert mds.token_replays == 0

    @pytest.mark.parametrize("op", ["mkdir", "create"])
    def test_replay_returns_the_recorded_result_at_lookup_cost(
            self, world, mode, op):
        cluster, fs, mds = world
        token = ("r", 1, op)
        _, first, _ = apply(cluster.env, mds, mode, op, "/d/x", token=token)
        status, again, elapsed = apply(cluster.env, mds, mode, op, "/d/x",
                                       token=token)
        assert (status, again) == ("ok", first)
        assert elapsed == pytest.approx(cluster.costs.mds_lookup_service,
                                        rel=1e-9)
        assert mds.token_replays == 1
        assert fs.namespace.readdir("/d") == ["x"]

    def test_unlink_replay_does_not_remove_a_recreated_entry(self, world,
                                                             mode):
        cluster, fs, mds = world
        fs.namespace.create("/d/f")
        token = ("r", 1, "rm")
        assert apply(cluster.env, mds, mode, "unlink", "/d/f",
                     token=token)[:2] == ("ok", None)
        fs.namespace.create("/d/f")  # a later generation of the name
        status, detail, elapsed = apply(cluster.env, mds, mode, "unlink",
                                        "/d/f", token=token)
        assert (status, detail) == ("ok", None)
        assert elapsed == pytest.approx(cluster.costs.mds_lookup_service,
                                        rel=1e-9)
        assert fs.namespace.exists("/d/f")

    def test_untokened_repeat_is_a_domain_error_at_full_price(self, world,
                                                              mode):
        cluster, fs, mds = world
        apply(cluster.env, mds, mode, "create", "/d/f")
        status, detail, elapsed = apply(cluster.env, mds, mode, "create",
                                        "/d/f")
        assert status == "err" and isinstance(detail, FileExists)
        assert elapsed == pytest.approx(cluster.costs.mds_op_service,
                                        rel=1e-9)
        assert mds.token_replays == 0


class TestCommitBatchPricing:
    def _elapsed(self, cluster, mds, ops):
        t0 = cluster.env.now
        results = run_sync(cluster.env, mds.handle_commit_batch(ops))
        return results, cluster.env.now - t0

    def test_first_op_full_price_then_discounted(self, world):
        cluster, fs, mds = world
        costs = cluster.costs
        results, elapsed = self._elapsed(
            cluster, mds, [("create", f"/d/f{i}", {}) for i in range(3)])
        assert [status for status, _ in results] == ["ok"] * 3
        discounted = costs.mds_op_service * (
            1.0 - costs.mds_batch_lookup_discount)
        assert 0 < discounted < costs.mds_op_service
        assert elapsed == pytest.approx(costs.mds_op_service
                                        + 2 * discounted, rel=1e-9)

    def test_replay_in_first_position_leaves_full_price_to_the_next(
            self, world):
        cluster, fs, mds = world
        costs = cluster.costs
        token = ("r", 7, "create")
        run_sync(cluster.env, mds.handle_create("/d/a", token=token))
        results, elapsed = self._elapsed(cluster, mds, [
            ("create", "/d/a", {"token": token}),
            ("create", "/d/b", {}),
            ("create", "/d/c", {}),
        ])
        assert [status for status, _ in results] == ["ok"] * 3
        assert mds.token_replays == 1
        discounted = costs.mds_op_service * (
            1.0 - costs.mds_batch_lookup_discount)
        assert elapsed == pytest.approx(
            costs.mds_lookup_service + costs.mds_op_service + discounted,
            rel=1e-9)

    def test_rejected_op_spends_the_full_price_slot(self, world):
        cluster, fs, mds = world
        costs = cluster.costs
        results, elapsed = self._elapsed(cluster, mds, [
            ("rename", "/d/a", {}),
            ("create", "/d/missing/b", {}),
            ("create", "/d/c", {}),
        ])
        assert [status for status, _ in results] == ["err", "err", "ok"]
        assert isinstance(results[0][1], ValueError)
        assert isinstance(results[1][1], FSError)
        discounted = costs.mds_op_service * (
            1.0 - costs.mds_batch_lookup_discount)
        assert elapsed == pytest.approx(costs.mds_op_service
                                        + 2 * discounted, rel=1e-9)


    def test_peer_replay_during_the_first_hold_does_not_refund_the_slot(
            self, world):
        """The worker pool runs several handlers at once on one server: a
        token replayed by *another* batch while this batch's first op
        holds for its service time is not this batch's replay."""
        cluster, fs, mds = world
        env, costs = cluster.env, cluster.costs
        assert mds.workers.capacity > 1
        token = ("r", 9, "create")
        run_sync(env, mds.handle_create("/d/a", token=token))
        t0 = env.now
        elapsed = {}

        def batch(name, delay, ops):
            yield delay
            yield from mds.handle_commit_batch(ops)
            elapsed[name] = env.now - t0 - delay

        env.process(batch("fresh", 0.0, [("create", "/d/b", {}),
                                         ("create", "/d/c", {})]))
        env.process(batch("replayer", costs.mds_op_service / 2,
                          [("create", "/d/a", {"token": token})]))
        env.run()
        assert mds.token_replays == 1
        assert elapsed["replayer"] == pytest.approx(
            costs.mds_lookup_service, rel=1e-9)
        discounted = costs.mds_op_service * (
            1.0 - costs.mds_batch_lookup_discount)
        assert elapsed["fresh"] == pytest.approx(
            costs.mds_op_service + discounted, rel=1e-9)


class TestCallerKilledMidBatch:
    def test_interrupt_during_a_service_hold_propagates(self, world):
        """``Interrupt`` subclasses ``Exception``; the per-op capture of
        *domain* errors must not swallow it, or a caller killed mid-batch
        is recorded as ``("err", Interrupt)`` and carries on alive."""
        cluster, fs, mds = world
        env = cluster.env
        node = cluster.add_node("client")
        ops = [("create", f"/d/f{i}", {}) for i in range(3)]
        outcome = []

        def caller():
            try:
                results = yield from mds.request(node, "commit_batch", ops)
            except Interrupt as intr:
                outcome.append(("interrupted", intr.cause))
            else:
                outcome.append(("results", results))

        proc = env.process(caller())
        while mds.workers.in_use == 0:
            env.step()
        env.step()  # the worker grant resumes the caller into the hold
        assert mds.workers.in_use == 1 and not fs.namespace.readdir("/d")
        proc.interrupt("node crash")
        env.run()
        assert outcome == [("interrupted", "node crash")]
        assert mds.workers.in_use == 0
        assert mds.workers.queue_length == 0
        assert fs.namespace.readdir("/d") == []
        assert mds.requests_served == 0
