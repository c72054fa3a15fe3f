"""A run that draws no random number never imports numpy.

numpy is most of the import time and ≈ 14 MiB of the resident set of a
short run, and none of the benchmark workloads draws from it.  So numpy
is imported where a draw or a latency summary happens
(``repro.sim.rng.RngStreams.stream``, ``repro.sim.rng.default_rng``,
``repro.bench.report.summarize``), never at module level.  This pin
imports what ``benchmarks/perf/driver.py`` imports, drives one mkdir,
create and getattr on each system, and checks in a fresh interpreter
that numpy stayed out.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = r"""
import sys

import repro.bench.systems
import repro.chaos.invariants
import repro.obs.hub
import repro.sim.trace
from repro.bench.systems import make_testbed
from repro.sim.core import run_sync


def ops(client):
    yield from client.mkdir("/app/d")
    yield from client.create("/app/d/f")
    yield from client.getattr("/app/d/f")


for system in ("pacon", "beegfs", "indexfs"):
    bed = make_testbed(system, nodes_per_app=1, clients_per_node=1)
    run_sync(bed.env, ops(bed.clients[0]))
    bed.quiesce()
    assert "numpy" not in sys.modules, system
print("ok")
"""


def test_a_run_without_random_draws_leaves_numpy_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
