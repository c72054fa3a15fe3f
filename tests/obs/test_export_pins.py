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

#: One fixed-seed observed mdtest run (``--seed`` defaults to the repo's).
OBSERVED = ["--nodes", "2", "--clients-per-node", "2", "--items", "6"]

PINS = {
    "fig07.metrics":
        "c170d165dce77713dd49d91d184d4c84c8f78c4f3e43cfd506970abcac05afa2",
    "fig07.trace":
        "5e9f8df5a40de9b67cc7241a53d9041c1e432a8ab259fa6629b85445a03a239d",
    "profile.txt":
        "ecddd71133c98596dfda2a371d90143ee619ad068922f52fa7b4e3cf76c8b996",
    "trace.txt":
        "43604f1e9374b27cbf8bdad6d026eff98407ad4f6da2f5deb4e0fcc96a7026e9",
    "trace.chrome":
        "6c7c097d3fb42237db9db1a6a3220e245e8c4fe7fde22222dc2f1f51318f6464",
    "cache_churn.metrics_doc":
        "caeba14cbfc0a78bfb51775f1406a46e242d1db8754639dfe9e3a843835b1a64",
    "node_crash.metrics_doc":
        "ffda938cffaddb0c48cf61004adca0c2679a7edd50531d4fb7a55dfa1b137742",
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
    assert main(["profile", *OBSERVED, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == PINS["profile.txt"]


def test_trace_render_and_its_chrome_file(tmp_path, capsys):
    out, chrome = tmp_path / "trace.txt", tmp_path / "c.json"
    assert main(["trace", *OBSERVED, "--limit", "100000", "--out", str(out),
                 "--chrome", str(chrome)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == PINS["trace.txt"]
    assert _sha(chrome.read_bytes()) == PINS["trace.chrome"]


@pytest.mark.parametrize("scenario", ["cache_churn", "node_crash"])
def test_chaos_scenario_metrics_doc(scenario):
    doc = run_scenario(scenario).metrics_doc
    text = json.dumps(doc, sort_keys=True)
    assert _sha(text.encode()) == PINS[f"{scenario}.metrics_doc"]
