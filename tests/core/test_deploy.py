"""Tests for PaconDeployment wiring, config validation, and the PaconFS facade."""

import pytest

from repro.core.config import PaconConfig
from repro.core.deploy import PaconFS
from repro.dfs.errors import FileExists


class TestPaconConfig:
    def test_defaults_match_paper(self):
        config = PaconConfig()
        assert config.small_file_threshold == 4096
        assert config.parent_check is True

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PaconConfig(small_file_threshold=-1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PaconConfig(cache_capacity_bytes=0)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            PaconConfig(commit_batch_size=0)


class TestDeploymentInit:
    def test_workspace_materialized_on_dfs(self):
        fs = PaconFS(workspace="/deep/app/dir", nodes=2)
        ns = fs.dfs.namespace
        assert ns.exists("/deep/app/dir")
        inode = ns.getattr("/deep/app/dir")
        assert inode.uid == fs.region.config.uid
        fs.close()

    def test_shadow_dir_materialized(self):
        fs = PaconFS(workspace="/app", nodes=1)
        assert fs.dfs.namespace.exists(fs.region.dfs_shadow_dir)
        fs.close()

    def test_commit_processes_one_per_node(self):
        fs = PaconFS(workspace="/app", nodes=5)
        assert len(fs.region.commit_processes) == 5
        fs.close()

    def test_shards_one_per_node(self):
        fs = PaconFS(workspace="/app", nodes=3)
        assert len(fs.region.shards) == 3
        fs.close()

    def test_config_workspace_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PaconFS(workspace="/a", config=PaconConfig(workspace="/b"))


class TestPaconFSFacade:
    def test_full_lifecycle(self):
        with PaconFS(workspace="/app", nodes=2) as fs:
            fs.mkdir("/app/d")
            fs.create("/app/d/f")
            fs.write("/app/d/f", 0, data=b"payload")
            assert fs.read("/app/d/f", 0, 7) == b"payload"
            assert fs.stat("/app/d/f").size == 7
            assert fs.readdir("/app/d") == ["f"]
            fs.rm("/app/d/f")
            assert not fs.exists("/app/d/f")
            assert fs.rmdir("/app/d") == 1

    def test_duplicate_create_raises(self):
        with PaconFS(workspace="/app") as fs:
            fs.create("/app/f")
            with pytest.raises(FileExists):
                fs.create("/app/f")

    def test_quiesce_lands_commits(self):
        fs = PaconFS(workspace="/app")
        for i in range(10):
            fs.create(f"/app/f{i}")
        fs.quiesce()
        assert fs.dfs_namespace_entries() >= 11  # ws + 10 files
        fs.close()

    def test_close_idempotent_and_final(self):
        fs = PaconFS(workspace="/app")
        fs.create("/app/f")
        fs.close()
        fs.close()
        with pytest.raises(RuntimeError):
            fs.create("/app/g")

    def test_close_drains_all_ops(self):
        fs = PaconFS(workspace="/app", nodes=3)
        for i in range(30):
            fs.create(f"/app/f{i}")
        fs.close()
        for i in range(30):
            assert fs.dfs.namespace.exists(f"/app/f{i}")

    def test_sim_time_advances(self):
        fs = PaconFS(workspace="/app")
        t0 = fs.now
        fs.create("/app/f")
        assert fs.now > t0
        fs.close()

    def test_cache_items_introspection(self):
        fs = PaconFS(workspace="/app")
        fs.create("/app/f")
        assert fs.cache_items() == 1
        fs.close()

    def test_out_of_workspace_via_facade(self):
        fs = PaconFS(workspace="/app")
        fs.dfs.namespace.mkdir("/public", mode=0o777)
        fs.create("/public/x")
        assert fs.exists("/public/x")
        fs.close()
