"""Cross-process determinism: same seed → byte-identical observable output.

Regression for the salted-``hash()`` shadow-file names: fsync used the
built-in ``hash(path)`` to name its DFS cache files, which varies with
``PYTHONHASHSEED`` — so two same-seed runs in different processes produced
different shadow paths, traces, and metrics exports.  The fix routes the
name through ``repro.sim.rng.stable_hash``.  This test runs the same
seeded workload in two subprocesses with *different* hash seeds and
requires identical output (shadow file listing + trace rendering +
MetricsHub JSON); it fails before the fix.

The same two-hash-seed diff covers the exports whose worlds the control
plane mutates while they run: a chaos scenario (crash, recovery, blame)
and the smoke elastic run's autoscaled mode (grow, migrate, retire) —
and the counters of the repo's benchmark: every per-layer metric its
``--compare`` treats as exact (``L.calls``, kernel event counts, the
observer's export size and event count) must not depend on the hash seed
either, or a count-based claim could not be checked across processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf.run import is_exact

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")

SCRIPT = r"""
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.sim.network import Cluster
from repro.sim.trace import Tracer

cluster = Cluster(seed=7)
dfs = BeeGFS(cluster)
nodes = [cluster.add_node(f"client{i}") for i in range(2)]
dep = PaconDeployment(cluster, dfs)
# start_commit=False keeps creates uncommitted, so fsync must park the
# inline bytes in hash-named shadow files on the DFS.
region = dep.create_region(PaconConfig(workspace="/app"), nodes,
                           start_commit=False)
hub = MetricsHub(tracer=Tracer(), sample_interval=100e-6)
hub.attach_region(region)
clients = [dep.client(region, node) for node in nodes]


def work(client, tag):
    yield from client.mkdir(f"/app/{tag}")
    for j in range(4):
        path = f"/app/{tag}/f{j}"
        yield from client.create(path)
        yield from client.write(path, 0, size=512)
        yield from client.fsync(path)


for i, client in enumerate(clients):
    run_sync(cluster.env, work(client, f"d{i}"), label=f"work{i}")
dep.start_commit_processes(region)
dep.quiesce_sync(region)
hub.stop_samplers()

shadows = sorted(path for path, inode in
                 dfs.namespace.walk(region.dfs_shadow_dir)
                 if path != region.dfs_shadow_dir)
assert len(shadows) >= 8, f"expected shadow files, got {shadows}"
print("\n".join(shadows))
print("===")
print(hub.tracer.render(limit=100000))
print("===")
print(hub.to_json())
"""

CHAOS_SCRIPT = r"""
import json
from repro.chaos.scenarios import run_scenario

result = run_scenario("node_crash")
print(json.dumps(result.summary(), sort_keys=True))
print(json.dumps(result.metrics_doc, sort_keys=True))
"""

ELASTIC_SCRIPT = r"""
from repro.bench import elastic
from repro.obs.hub import MetricsHub
from repro.sim.rng import DEFAULT_SEED

params = elastic.SCALES["smoke"]
hub = MetricsHub(sample_interval=params["sample_interval"])
print(sorted(elastic._run_mode("autoscale", params, DEFAULT_SEED,
                               hub=hub).items()))
print(hub.to_json())
"""


def _run(script: str, hashseed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_identical_across_hash_seeds():
    assert _run(SCRIPT, 1) == _run(SCRIPT, 2)


@pytest.mark.parametrize("script", [CHAOS_SCRIPT, ELASTIC_SCRIPT],
                         ids=["chaos", "elastic"])
def test_control_plane_exports_identical_across_hash_seeds(script):
    first = _run(script, 1)
    assert len(first) > 10_000
    assert first == _run(script, 2)


def test_perf_counters_identical_across_hash_seeds():
    """The traced pass of the observed workload at the smoke geometry."""
    def counters(hashseed: int):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"),
             "--quick", "--workload", "mdtest_pacon_observed",
             "--trace", "1"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert line["correct"] and line["failed"] == 0
        return {name: metric["value"]
                for name, metric in line["metrics"].items()
                if is_exact(name)}

    first = counters(1)
    assert {"obs.export_bytes", "obs.trace_events", "obs.calls",
            "sim.core.events", "sim.core.calls", "kvstore.calls",
            "core.calls"} <= first.keys()
    assert first["obs.calls"] > 0 and first["obs.trace_events"] > 0
    assert first == counters(2)
