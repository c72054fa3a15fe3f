"""Additional IndexFS coverage: readdir across partitions, exists, leases
under concurrent clients, and the LSM cost coupling at scale."""

import pytest

from repro.baselines.indexfs import IndexFS
from repro.dfs.errors import FileNotFound, InvalidPath, NotADirectory
from repro.sim.core import run_sync
from repro.sim.network import Cluster


def make(n_nodes=4, lease_ttl=200e-3, split_threshold=10):
    cluster = Cluster(seed=13)
    nodes = [cluster.add_node(f"n{i}") for i in range(n_nodes)]
    fs = IndexFS(cluster, nodes, lease_ttl=lease_ttl,
                 split_threshold=split_threshold)
    return cluster, fs, nodes


class TestAdminMkdir:
    def test_admin_mkdir_visible_to_clients(self):
        cluster, fs, nodes = make()
        fs.admin_mkdir("/work", mode=0o777)
        client = fs.client(nodes[0])

        def go():
            yield from client.create("/work/f")
            return (yield from client.exists("/work/f"))

        assert run_sync(cluster.env, go())

    def test_admin_mkdir_counts_toward_splits(self):
        cluster, fs, nodes = make(split_threshold=2)
        for i in range(8):
            fs.admin_mkdir(f"/d{i}")
        assert fs.partitions_of("/") >= 2


class TestProbeChain:
    def test_chain_is_server_for_entry_per_generation(self):
        """Newest generation first, halving to one partition, each owner
        listed once -- what ``server_for_entry`` names per generation."""
        _cluster, fs, _nodes = make(n_nodes=8, split_threshold=2)
        for i in range(40):
            fs.admin_mkdir(f"/d{i}")
        assert fs.partitions_of("/") == 8
        for name in ("d0", "d7", "x", "é"):
            expected = []
            nparts = 8
            while nparts >= 1:
                server = fs.server_for_entry("/", name, nparts)
                if server not in expected:
                    expected.append(server)
                nparts //= 2
            assert fs.probe_chain("/" + name) == expected
            assert expected[0] is fs.server_for("/" + name)


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
                out.append((yield from reader.exists(f"/dir{i}/f")))
            return out

        assert all(run_sync(cluster.env, check()))

    def test_lease_caches_are_per_client(self):
        cluster, fs, nodes = make(lease_ttl=100.0)
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
    def test_getattr_missing_after_probe_chain(self):
        cluster, fs, nodes = make(split_threshold=3)
        client = fs.client(nodes[0])

        def go():
            yield from client.mkdir("/d")
            for i in range(20):  # force splits so the chain is > 1 long
                yield from client.create(f"/d/f{i}")
            yield from client.getattr("/d/ghost")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())

    def test_unlink_missing_after_probe_chain(self):
        cluster, fs, nodes = make(split_threshold=3)
        client = fs.client(nodes[0])

        def go():
            yield from client.mkdir("/d")
            for i in range(20):
                yield from client.create(f"/d/f{i}")
            yield from client.unlink("/d/ghost")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())


class TestRmdirTargets:
    """rmdir removes directories only, as BeeGFS's does."""

    def _app_with_file(self):
        cluster, fs, nodes = make(n_nodes=2)
        fs.admin_mkdir("/app")
        client = fs.client(nodes[0])
        run_sync(cluster.env, client.create("/app/f"))
        return cluster, fs, client

    def test_rmdir_of_a_file_raises_not_a_directory_and_keeps_it(self):
        cluster, fs, client = self._app_with_file()
        with pytest.raises(NotADirectory):
            run_sync(cluster.env, client.rmdir("/app/f"))
        assert run_sync(cluster.env, client.exists("/app/f"))
        assert fs.total_entries() == 2

    def test_rmdir_of_a_missing_path_raises_file_not_found(self):
        cluster, fs, client = self._app_with_file()
        with pytest.raises(FileNotFound):
            run_sync(cluster.env, client.rmdir("/app/nope"))
        assert fs.total_entries() == 2

    def test_rmdir_of_the_root_raises_invalid_path(self):
        cluster, fs, client = self._app_with_file()
        with pytest.raises(InvalidPath):
            run_sync(cluster.env, client.rmdir("/"))
        assert fs.total_entries() == 2

    def test_rmdir_forgets_the_directories_under_it(self):
        """A recreated directory holds nothing of the old subtree, even
        for a client whose leases on it are still fresh."""
        cluster, fs, client = self._app_with_file()

        def go():
            yield from client.mkdir("/app/d")
            yield from client.mkdir("/app/d/e")
            yield from client.create("/app/d/e/f")
            yield from client.rmdir("/app/d")
            yield from client.mkdir("/app/d")
            yield from client.create("/app/d/e/g")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())
        assert sorted(fs.dirmap) == ["/", "/app", "/app/d"]

    def test_unlink_drops_the_lease_a_failed_walk_took(self):
        """A walk through a file leases its record; once the file is gone,
        a path under it is missing, not under a non-directory."""
        cluster, fs, client = self._app_with_file()

        def go():
            try:
                yield from client.mkdir("/app/f/d")
            except NotADirectory:
                pass
            yield from client.unlink("/app/f")
            yield from client.mkdir("/app/f/d")

        with pytest.raises(FileNotFound):
            run_sync(cluster.env, go())


class TestRoot:
    """The root lives only in the directory index, never in an LSM tree,
    yet it answers like any directory."""

    def test_getattr_root_returns_the_root_directory(self):
        cluster, fs, nodes = make(n_nodes=2)
        inode = run_sync(cluster.env, fs.client(nodes[0]).getattr("/"))
        assert inode.is_dir and inode.ino == 1 and inode.mode == 0o777

    def test_readdir_root_lists_its_entries(self):
        cluster, fs, nodes = make(n_nodes=2)
        fs.admin_mkdir("/app")
        client = fs.client(nodes[0])

        def go():
            yield from client.create("/app/f")
            yield from client.mkdir("/logs")
            return (yield from client.readdir("/"))

        assert run_sync(cluster.env, go()) == ["app", "logs"]
        assert not any(s.lsm.get("/").found for s in fs.servers)


class TestScaleCosts:
    def test_stat_slows_once_tables_flush(self):
        """With a small memtable, a big namespace pushes entries into
        SSTables stored on the DFS — stats get measurably slower."""
        def mean_stat_time(n_files):
            cluster, fs, nodes = make(split_threshold=10 ** 9)
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
