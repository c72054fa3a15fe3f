"""Integration tests: DFS client against a BeeGFS-like deployment."""

import pytest

from repro.core.failure import fail_mds
from repro.dfs import BeeGFS, FileExists, FileNotFound, PermissionDenied
from repro.sim.core import run_sync
from repro.sim.network import Cluster, MessageDropped


@pytest.fixture
def world():
    cluster = Cluster()
    fs = BeeGFS(cluster, n_mds=1, n_data=3)
    node = cluster.add_node("client0")
    client = fs.client(node, uid=1000, gid=1000)
    return cluster, fs, client


def run(cluster, gen):
    return run_sync(cluster.env, gen)


class TestMetadataOps:
    def test_mkdir_create_getattr(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            inode = yield from client.getattr("/w/f")
            return inode

        inode = run(cluster, scenario())
        assert inode.is_file
        assert inode.uid == 1000

    def test_create_missing_parent_enoent(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.create("/no/such/f")

        with pytest.raises(FileNotFound):
            run(cluster, scenario())

    def test_duplicate_create_eexist(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            yield from client.create("/w/f")

        with pytest.raises(FileExists):
            run(cluster, scenario())

    def test_unlink_and_exists(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            yield from client.unlink("/w/f")
            return (yield from client.exists("/w/f"))

        assert run(cluster, scenario()) is False

    def test_readdir(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            for name in ["b", "a"]:
                yield from client.create(f"/w/{name}")
            return (yield from client.readdir("/w"))

        assert run(cluster, scenario()) == ["a", "b"]

    def test_rmdir_recursive(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.mkdir("/w/d")
            yield from client.create("/w/d/f")
            removed = yield from client.rmdir("/w/d", recursive=True)
            return removed

        assert run(cluster, scenario()) == 2

    def test_rename(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/old")
            yield from client.rename("/w/old", "/w/new")
            return (yield from client.exists("/w/new"))

        assert run(cluster, scenario()) is True

    def test_permission_enforced_through_rpc(self, world):
        cluster, fs, client = world
        fs.namespace.mkdir("/private", mode=0o700, uid=1, gid=1)

        def scenario():
            yield from client.create("/private/f")

        with pytest.raises(PermissionDenied):
            run(cluster, scenario())

    def test_exists_with_the_mds_down_raises_instead_of_reporting_absent(
            self, world):
        # Only FileNotFound means "absent", as for the Pacon and IndexFS
        # clients; a transport error is not an answer.
        cluster, fs, client = world
        run(cluster, client.mkdir("/w"))
        run(cluster, client.create("/w/f"))
        fail_mds(fs)
        with pytest.raises(MessageDropped):
            run(cluster, client.getattr("/w/f"))
        with pytest.raises(MessageDropped):
            run(cluster, client.exists("/w/f"))


class TestTraversalCost:
    def test_lookup_rpcs_scale_with_depth(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/a")
        fs.mkdir_sync("/a/b")
        fs.mkdir_sync("/a/b/c")
        fs.namespace.create("/a/b/c/f", uid=1000, gid=1000)

        def scenario():
            yield from client.getattr("/a/b/c/f")

        run(cluster, scenario())
        assert client.lookup_rpcs == 3  # a, b, c; leaf via getattr RPC

    def test_deeper_paths_cost_more_time(self):
        def stat_time(depth):
            cluster = Cluster()
            fs = BeeGFS(cluster)
            node = cluster.add_node("client")
            client = fs.client(node)
            path = ""
            for i in range(depth):
                path += f"/d{i}"
                fs.mkdir_sync(path)
            fs.namespace.create(path + "/leaf", uid=1000, gid=1000)

            def scenario():
                t0 = cluster.env.now
                yield from client.getattr(path + "/leaf")
                return cluster.env.now - t0

            return run_sync(cluster.env, scenario())

        assert stat_time(6) > stat_time(3) * 1.4

    def test_mds_serves_all_metadata(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")

        run(cluster, scenario())
        assert fs.mds_servers[0].requests_served == client.rpcs_sent


class TestDataPath:
    def test_write_updates_size(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            yield from client.write("/w/f", 0, 1_000_000)
            inode = yield from client.getattr("/w/f")
            return inode.size

        assert run(cluster, scenario()) == 1_000_000

    def test_write_within_size_no_shrink(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            yield from client.write("/w/f", 0, 1000)
            yield from client.write("/w/f", 0, 10)
            inode = yield from client.getattr("/w/f")
            return inode.size

        assert run(cluster, scenario()) == 1000

    def test_read_back_written_bytes(self, world):
        cluster, fs, client = world

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            yield from client.write("/w/f", 0, 2_000_000)
            return (yield from client.read("/w/f", 0, 2_000_000))

        assert run(cluster, scenario()) == 2_000_000

    def test_striping_spreads_over_data_servers(self, world):
        cluster, fs, client = world
        size = 4 * 1024 * 1024  # 8 chunks at 512 KiB

        def scenario():
            yield from client.mkdir("/w")
            yield from client.create("/w/f")
            yield from client.write("/w/f", 0, size)

        run(cluster, scenario())
        written = [ds.bytes_written for ds in fs.data_servers]
        assert all(w > 0 for w in written)
        assert sum(written) == size


class TestMultiMDS:
    def test_directories_shard_across_mds(self):
        cluster = Cluster()
        fs = BeeGFS(cluster, n_mds=4)
        owners = {fs.mds_for(f"/dir{i}").name for i in range(40)}
        assert len(owners) > 1

    def test_single_mds_always_same(self):
        cluster = Cluster()
        fs = BeeGFS(cluster, n_mds=1)
        assert fs.mds_for("/a") is fs.mds_for("/zzz")

    def test_multi_mds_serves_correctly(self):
        cluster = Cluster()
        fs = BeeGFS(cluster, n_mds=3)
        node = cluster.add_node("client")
        client = fs.client(node)

        def scenario():
            for i in range(6):
                yield from client.mkdir(f"/d{i}")
                yield from client.create(f"/d{i}/f")
            found = []
            for i in range(6):
                found.append((yield from client.exists(f"/d{i}/f")))
            return found

        assert all(run_sync(cluster.env, scenario()))

    def test_deployment_validation(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            BeeGFS(cluster, n_mds=0)


def _chain(generator):
    """The ``yield from`` chain hanging off ``generator``, itself first."""
    chain = [generator]
    while chain[-1].gi_yieldfrom is not None:
        chain.append(chain[-1].gi_yieldfrom)
    return chain


def _in_sender_nic_hold(process, method):
    """Asleep holding the client's NIC while sending a ``method`` RPC.

    Nothing else runs in the world, so the NIC is in use exactly while
    this process holds it."""
    chain = _chain(process._generator)
    if len(chain) < 2 or chain[-1].gi_code.co_name != "transfer":
        return False
    request, transfer = chain[-2:]
    hop = transfer.gi_frame.f_locals
    nic = hop.get("nic")
    return (request.gi_frame.f_locals.get("method") == method
            and process.waiting_on is None and nic is not None
            and nic is hop["src"].nic and nic.in_use == 1)


class TestClientFrames:
    """Every resume of a DFS op re-enters the driving process's whole
    ``yield from`` chain: one client frame, lookups and op RPC alike."""

    def test_getattr_resumes_through_op_alone(self, world):
        cluster, fs, client = world
        fs.mkdir_sync("/a")
        fs.mkdir_sync("/a/b")
        fs.namespace.create("/a/b/c")

        def body():
            inode = yield from client.getattr("/a/b/c")
            return inode

        proc = cluster.env.process(body())
        for method in ("lookup", "getattr"):
            while not _in_sender_nic_hold(proc, method):
                cluster.env.step()
            names = [g.gi_code.co_name for g in _chain(proc._generator)]
            assert names == ["body", "_op", "request", "transfer"]
        cluster.env.run()
        assert proc.value.is_file and client.lookup_rpcs == 2
