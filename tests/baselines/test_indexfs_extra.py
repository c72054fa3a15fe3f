"""Additional IndexFS coverage: GIGA+ probe chains, leases under
concurrent clients, error paths, the root, and the LSM cost coupling at
scale."""

import pytest

from repro.baselines import indexfs
from repro.baselines.indexfs import IndexFS
from repro.dfs.errors import FileNotFound, InvalidPath, NotADirectory
from repro.sim.core import run_sync
from repro.sim.network import Cluster


@pytest.fixture(autouse=True)
def small_splits(monkeypatch):
    """Split past 10 entries per partition, so a few dozen creates do."""
    monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 10)


def make(n_nodes=4):
    cluster = Cluster(seed=13)
    nodes = [cluster.add_node(f"n{i}") for i in range(n_nodes)]
    fs = IndexFS(cluster, nodes)
    return cluster, fs, nodes


class TestAdminMkdir:
    def test_admin_mkdir_visible_to_clients(self):
        cluster, fs, nodes = make()
        fs.admin_mkdir("/work")
        client = fs.client(nodes[0])

        def go():
            yield from client.create("/work/f")
            return (yield from client.getattr("/work/f"))

        assert run_sync(cluster.env, go()).is_file

    def test_admin_mkdir_counts_toward_splits(self, monkeypatch):
        monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 2)
        cluster, fs, nodes = make()
        for i in range(8):
            fs.admin_mkdir(f"/d{i}")
        assert fs.dir_partitions.get("/", 1) >= 2


class TestProbeChain:
    def test_chain_is_server_for_entry_per_generation(self, monkeypatch):
        """Newest generation first, halving to one partition, each owner
        listed once -- what ``server_for_entry`` names per generation."""
        monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 2)
        _cluster, fs, _nodes = make(n_nodes=8)
        for i in range(40):
            fs.admin_mkdir(f"/d{i}")
        assert fs.dir_partitions.get("/", 1) == 8
        chains = {name: fs.probe_chain("/" + name)
                  for name in ("d0", "d7", "x", "é")}
        for name, chain in chains.items():
            assert chain[0] is fs.server_for("/" + name)
        expected = {name: [] for name in chains}
        nparts = 8
        while nparts >= 1:
            # An older generation's owner: the owner while "/" had that
            # many partitions.
            fs.dir_partitions["/"] = nparts
            for name, servers in expected.items():
                server = fs.server_for_entry("/", name)
                if server not in servers:
                    servers.append(server)
            nparts //= 2
        assert chains == expected


class TestConcurrentClients:
    def test_many_clients_share_namespace(self):
        cluster, fs, nodes = make()
        clients = [fs.client(node) for node in nodes]

        def writer(i, cl):
            yield from cl.mkdir(f"/dir{i}")
            yield from cl.create(f"/dir{i}/f")

        procs = [cluster.env.process(writer(i, cl))
                 for i, cl in enumerate(clients)]
        for p in procs:
            cluster.env.run(until=p)
        # Every client can see every other client's work.
        reader = clients[0]

        def check():
            out = []
            for i in range(len(clients)):
                inode = yield from reader.getattr(f"/dir{i}/f")
                out.append(inode.is_file)
            return out

        assert all(run_sync(cluster.env, check()))

    def test_lease_caches_are_per_client(self, monkeypatch):
        monkeypatch.setattr(indexfs, "LEASE_TTL", 100.0)
        cluster, fs, nodes = make()
        a = fs.client(nodes[0])
        b = fs.client(nodes[1])

        def go():
            yield from a.mkdir("/d")
            yield from a.create("/d/f1")   # warms a's lease on /d
            before_b = b.lease_renewals
            yield from b.create("/d/f2")   # b must fetch its own lease
            return b.lease_renewals - before_b

        assert run_sync(cluster.env, go()) == 1


class TestErrorPaths:
    def test_getattr_missing_after_probe_chain(self, monkeypatch):
        monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 3)
        cluster, fs, nodes = make()
        client = fs.client(nodes[0])

        def go():
            yield from client.mkdir("/d")
            for i in range(20):  # force splits so the chain is > 1 long
                yield from client.create(f"/d/f{i}")
            yield from client.getattr("/d/ghost")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())

    def test_unlink_missing_after_probe_chain(self, monkeypatch):
        monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 3)
        cluster, fs, nodes = make()
        client = fs.client(nodes[0])

        def go():
            yield from client.mkdir("/d")
            for i in range(20):
                yield from client.create(f"/d/f{i}")
            yield from client.unlink("/d/ghost")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())

    def test_unlink_drops_the_lease_a_failed_walk_took(self):
        """A walk through a file leases its record; once the file is gone,
        a path under it is missing, not under a non-directory."""
        cluster, fs, nodes = make(n_nodes=2)
        fs.admin_mkdir("/app")
        client = fs.client(nodes[0])
        run_sync(cluster.env, client.create("/app/f"))

        def go():
            try:
                yield from client.mkdir("/app/f/d")
            except NotADirectory:
                pass
            yield from client.unlink("/app/f")
            yield from client.mkdir("/app/f/d")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())

    def test_unlink_of_the_root_raises_invalid_path(self):
        cluster, fs, nodes = make(n_nodes=2)
        fs.admin_mkdir("/app")
        with pytest.raises(InvalidPath):
            run_sync(cluster.env, fs.client(nodes[0]).unlink("/"))
        assert fs.total_entries() == 1


class TestRoot:
    """The root lives only in the directory index, never in an LSM tree,
    yet it answers like any directory."""

    def test_getattr_root_returns_the_root_directory(self):
        cluster, fs, nodes = make(n_nodes=2)
        fs.admin_mkdir("/app")
        inode = run_sync(cluster.env, fs.client(nodes[0]).getattr("/"))
        assert inode.is_dir and inode.ino == 1 and inode.mode == 0o777
        assert not any(s.lsm.get("/").found for s in fs.servers)


class TestScaleCosts:
    def test_stat_slows_once_tables_flush(self, monkeypatch):
        """With a small memtable, a big namespace pushes entries into
        SSTables stored on the DFS — stats get measurably slower."""
        def mean_stat_time(n_files):
            monkeypatch.setattr(indexfs, "SPLIT_THRESHOLD", 10 ** 9)
            cluster, fs, nodes = make()
            fs.servers[0].lsm.memtable_limit = 32
            client = fs.client(nodes[0])

            def go():
                yield from client.mkdir("/d")
                for i in range(n_files):
                    yield from client.create(f"/d/f{i:04d}")
                t0 = cluster.env.now
                for i in range(0, n_files, max(1, n_files // 20)):
                    yield from client.getattr(f"/d/f{i:04d}")
                count = len(range(0, n_files, max(1, n_files // 20)))
                return (cluster.env.now - t0) / count

            return run_sync(cluster.env, go())

        assert mean_stat_time(200) > mean_stat_time(20) * 1.3
