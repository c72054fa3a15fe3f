"""Byte-level pins of what the observability stack writes.

Every other export test compares two runs of the *same* tree; these
compare the tree against SHA-256 literals captured at the commit before
the readers were moved onto the exported document, so a refactor of the
recording or reading side that changes a single exported byte fails
here.  Everything is driven through entry points whose spelling did not
change (the CLI, ``run_scenario``), so the test passes at that commit and
this one alike.  A deliberate format change re-captures the literal in
the same commit that makes it.
"""

import hashlib
import json

import pytest

from repro.chaos.scenarios import run_scenario
from repro.cli import main
from repro.obs.schema import validate

#: One fixed-seed observed mdtest run (``--seed`` defaults to the repo's).
OBSERVED = ["mdtest", "--nodes", "2", "--clients-per-node", "2",
            "--items", "6"]

#: An observed mdtest run past the trace budget: 2 880 ops double the
#: sample stride once (``SAMPLED_OPS`` in ``sim/trace.py``), so the export
#: reads a thinned log.
THINNED = ["mdtest", "--nodes", "4", "--clients-per-node", "8",
           "--items", "30"]

#: Re-captured when the ``publish_stall`` attribution bucket was deleted:
#: ``fig07.metrics``, ``profile.txt`` and the two ``metrics_doc`` pins
#: changed, and each new artefact is byte-identical to the previous
#: commit's once that bucket is removed from ``attribution.buckets`` and
#: every ``attribution.ops.*.buckets`` (JSON) or its column is cut out of
#: both tables (profile text).  The two trace pins did not move.
#:
#: Re-captured again when ``CommitProcess._committed_mode`` was deleted:
#: ``fig07.metrics`` and the two ``metrics_doc`` pins changed, and only in
#: ``consistency.shard_reads`` — that helper's ``DistributedCache.peek``
#: was a counted ring lookup per committed create/mkdir (fig07
#: ``client0_0`` 807 → 625, ``client0_1`` 993 → 775; cache_churn
#: ``cn3/cn5/cn7`` 290/190/270 → 232/152/216; node_crash 231/159/213 →
#: 182/126/162).  The same tree with that one ``peek`` put back writes all
#: seven artefacts byte for byte as before; the other four did not move.
PINS = {
    "fig07.metrics":
        "0343591f9540a294cea27acd79d12e898b3f9c5404c6dcce955d3b72564077b6",
    "fig07.trace":
        "5e9f8df5a40de9b67cc7241a53d9041c1e432a8ab259fa6629b85445a03a239d",
    "profile.txt":
        "0f76fb27eda65f212a9c17a0f493bda19ba5ca00d8345c603f42ed43ffcea4ad",
    "trace.txt":
        "43604f1e9374b27cbf8bdad6d026eff98407ad4f6da2f5deb4e0fcc96a7026e9",
    "trace.chrome":
        "6c7c097d3fb42237db9db1a6a3220e245e8c4fe7fde22222dc2f1f51318f6464",
    "cache_churn.metrics_doc":
        "9258511b07b1581c4cc51e9874b7d8e98f856673023ad930a713cdd84718ab52",
    # Client c3 publishes /chaos/c3/f0010 just after its node crashed:
    # the publish is refused, the lost-op fence drops its cache record,
    # and the client re-creates the file after recovery.
    "node_crash.metrics_doc":
        "1796611f18c6a63fcac9a6c6b4bdc473d54c20281cfc15cc727885336d281bcd",
    # Captured before the tracer's records and the sampler's tick were
    # rewritten for cost; the thinning path was pinned by no other entry.
    "thinned.metrics":
        "8cf8995b7928388cf06e34002605319efdc63f23a10d614b313fe72bd870785a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_fig07_smoke_metrics_and_chrome_trace(tmp_path, capsys):
    metrics, trace = tmp_path / "m.json", tmp_path / "t.json"
    assert main(["figure", "fig07", "--scale", "smoke", "--metrics-out",
                 str(metrics), "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    assert _sha(metrics.read_bytes()) == PINS["fig07.metrics"]
    assert _sha(trace.read_bytes()) == PINS["fig07.trace"]


def test_profile_report_text(tmp_path, capsys):
    out = tmp_path / "profile.txt"
    assert main([*OBSERVED, "--profile-out", str(out)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == PINS["profile.txt"]


def test_trace_render_and_its_chrome_file(tmp_path, capsys):
    out, chrome = tmp_path / "trace.txt", tmp_path / "c.json"
    assert main([*OBSERVED, "--limit", "100000", "--log-out", str(out),
                 "--trace-out", str(chrome)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == PINS["trace.txt"]
    assert _sha(chrome.read_bytes()) == PINS["trace.chrome"]


def test_thinned_run_metrics(tmp_path, capsys):
    out = tmp_path / "big.json"
    assert main([*THINNED, "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    doc = json.loads(data)
    assert validate(doc) == []
    # Every op is counted, every other op keeps its whole tree, and no
    # kept tree is left open.
    assert doc["counters"]["client.ops"] == 2880
    assert doc["attribution"]["total_ops"] == 1440
    assert doc["trace"]["open_spans"] == 0
    assert _sha(data) == PINS["thinned.metrics"]


@pytest.mark.parametrize("scenario", ["cache_churn", "node_crash"])
def test_chaos_scenario_metrics_doc(scenario):
    doc = run_scenario(scenario).metrics_doc
    text = json.dumps(doc, sort_keys=True)
    assert _sha(text.encode()) == PINS[f"{scenario}.metrics_doc"]
