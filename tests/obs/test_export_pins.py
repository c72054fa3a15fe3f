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
#:
#: Re-captured again when a NIC became a booking instead of a park
#: (``sim.network.Nic``): six pins moved, ``profile.txt`` and
#: ``trace.txt`` did not.  In ``fig07.metrics``, ``trace.chrome`` and both
#: ``metrics_doc`` pins every NIC ``busy_time``/``utilization`` and
#: ``resource.util[*.nic]`` sample moved in its last digits (busy time is
#: now booked hold less what is booked past now, a different float sum);
#: ``fig07.trace`` renumbers span ids where two spans open at one instant
#: (the same-instant tie order); the ``metrics_doc`` pins also lose the
#: zero waits of messages that reached a NIC at the instant a channel
#: freed (``resource.wait[cn3.nic]`` count 24 → 22 and 19 → 18), and
#: ``node_crash`` keeps a struck sender's booking to its end
#: (``mds0.nic`` busy 0.0011380 → 0.0011382 s).  ``thinned.metrics``, 32
#: clients on identical costs, moves in its series under the new tie
#: order; its op counts and open spans did not move.
#:
#: Re-captured again when a cache shard's worker pool became a booking
#: (``Service.request``, "Booked"): seven pins moved, ``profile.txt`` did
#: not.  With span ids set aside, trace events read as multisets and
#: floats compared to 1e-9 relative, every artefact is the previous
#: commit's: span ids are renumbered and the queue and service spans of
#: a cache RPC are written at the booking's end rather than at the grant
#: (``trace.txt`` and both Chrome files reorder, every span keeping its
#: instants), and every shard ``workers`` ``busy_time``/``utilization``
#: and ``resource.util[*.workers]`` sample moved in its last digits
#: (booked hold less what is booked past now, a different float sum).
#: No ``resource.wait`` figure moved.
PINS = {
    "fig07.metrics":
        "a1b27f61500326a72e90bf507b94932ee849e94b1c75557b49f227296f559c03",
    "fig07.trace":
        "cdd0a8fc879eef9ab5a5745ca34f444b1d6cbd43cee7f103879f37dc5a7e9685",
    "profile.txt":
        "0f76fb27eda65f212a9c17a0f493bda19ba5ca00d8345c603f42ed43ffcea4ad",
    "trace.txt":
        "e2d17b11fdc8e43425e4719d1f427f3bbb9baf9b104c40dcae2f422d5286847e",
    "trace.chrome":
        "d50ea8b9333235c14a63e689fb32ad1c2db166834141df8bedf304ab7712b3e1",
    "cache_churn.metrics_doc":
        "ddb1f6373a690a8b04169bfb1ce679526ecdcc1ec8569701cffff2bbfeaca111",
    # Client c3 publishes /chaos/c3/f0010 just after its node crashed:
    # the publish is refused, the lost-op fence drops its cache record,
    # and the client re-creates the file after recovery.
    "node_crash.metrics_doc":
        "82fad547bcd36c6cde313c09b618479ac0c24e441890ec040130d68a9daab7dd",
    # Captured before the tracer's records and the sampler's tick were
    # rewritten for cost; the thinning path was pinned by no other entry.
    "thinned.metrics":
        "346f272ad3aad8379c4a06ecfd2b7e9b918d9d2d01e5b7be0beb8068bca971cc",
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
