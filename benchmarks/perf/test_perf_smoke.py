"""Smoke test of the benchmark itself, at the ``--quick`` 2x5 geometry.

Run with ``pytest benchmarks/perf -q`` (not part of the tier-1 suite).
"""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.perf import inputs, run

SPEC = run.load_spec()
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, RUN_PY, *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=600)


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    """Two quick suite runs under different hash seeds."""
    out = tmp_path_factory.mktemp("perf")
    paths = []
    for hash_seed in ("1", "2"):
        path = str(out / f"suite{hash_seed}.json")
        proc = _run("--quick", "--out", path, hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stdout
        paths.append(path)
    return paths


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_names_every_metric_with_its_unit(trace, section):
    proc = _run("--workload", "mdtest_pacon", "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_suite_reports_every_metric_on_every_workload(suites):
    with open(suites[0]) as fh:
        doc = json.load(fh)
    assert doc["scale"] == "quick"
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert sorted(doc["workloads"]) == sorted(inputs.WORKLOADS)
    for workload, result in doc["workloads"].items():
        assert names <= result["values"].keys(), workload
        assert result["values"]["workloads.op_fail_share"] == 0
    values = {w: r["values"] for w, r in doc["workloads"].items()}
    # Each workload uses and bypasses the layers its table row says.
    assert values["deepstat_pacon"]["mq.published"] == 0
    for layer in ("core", "mq", "obs", "kvstore"):
        assert values["mdtest_beegfs"][f"{layer}.calls"] == 0
    assert values["mdtest_beegfs"]["kvstore.memkv_sets"] is None
    assert values["mdtest_indexfs"]["baselines.calls"] > 0
    assert values["mdtest_indexfs"]["kvstore.lsm_puts"] > 0
    assert (values["mdtest_pacon_observed"]["obs.self_share"]
            > values["mdtest_pacon"]["obs.self_share"])


def test_simulated_metrics_identical_across_hash_seeds(suites):
    docs = []
    for path in suites:
        with open(path) as fh:
            docs.append(json.load(fh))
    for workload in inputs.WORKLOADS:
        a, b = (d["workloads"][workload]["values"] for d in docs)
        exact = [k for k in a if run.is_exact(k)]
        assert any(k.endswith(".calls") for k in exact)
        assert "sim_ops_per_s" in exact and "host_ops_per_s" not in exact
        assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    assert _run("--compare", *suites).returncode in (0, 1)  # host may move


def test_compare_refuses_quick_against_full(suites, tmp_path):
    with open(suites[0]) as fh:
        doc = json.load(fh)
    doc["scale"] = "full"
    full = tmp_path / "full.json"
    full.write_text(json.dumps(doc))
    proc = _run("--compare", suites[0], str(full))
    assert proc.returncode == 2
    assert "refusing" in proc.stdout


def test_compare_flags_simulated_drift(suites, tmp_path):
    with open(suites[0]) as fh:
        doc = json.load(fh)
    doc["workloads"]["mdtest_beegfs"]["values"]["sim.core.calls"] += 1
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(doc))
    proc = _run("--compare", suites[0], str(drifted))
    assert proc.returncode == 1
    assert "sim.core.calls" in proc.stdout and "DRIFT" in proc.stdout


def test_second_seed_changes_stat_targets_not_op_counts():
    for workload in inputs.WORKLOADS.values():
        a = inputs.generate(workload, workload.quick, 3054)
        b = inputs.generate(workload, workload.quick, 3055)
        assert a.ops == b.ops and a.expected == b.expected
        assert a.phases[-1][2] != b.phases[-1][2]
        assert inputs.generate(workload, workload.quick, 3054).phases \
            == a.phases


@pytest.mark.parametrize("workload", ["mdtest_pacon", "mdtest_indexfs"])
def test_withheld_path_trips_verification(workload, monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(str(run.ROOT), "src"))
    from benchmarks.perf import driver

    def withholding(*args):
        made = inputs.generate(*args)
        del made.expected[f"{inputs.WORKDIR}/file.0.0"]
        return made

    monkeypatch.setattr(driver, "generate", withholding)
    status = run.main(["--workload", workload, "--quick", "--trace", "1"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert line["correct"] is False and line["failed"] > 0
    assert line["metrics"]["workloads.op_fail_share"]["value"] > 0
