"""One exported document, every reader on it.

The exported ``pacon.metrics/v4`` document is the one interface between
recording and reading; the only thing a reader takes from the tracer is
one parse of the event log (``Tracer.op_rows``), wrapped into span trees
only by the readers that render trees.  Two angles:

* a call count — an export, a profile report and a Chrome trace each
  parse the event log exactly once, and only the Chrome trace builds
  span trees from it;
* source guards (in the style of ``tests/core/test_membership_paths.py``)
  that keep each shared mechanism from being spelled a second time.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.obs import schema
from repro.obs.chrome import chrome_trace
from repro.obs.incidents import IncidentRule
from repro.obs.profile import (render_attribution_table, render_report,
                               render_resource_table)
from repro.obs.slo import Verdict
from repro.obs.timeline import ControlEvent
from repro.sim.trace import Tracer
from tests.obs.conftest import make_observed_world

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ------------------------------------------------------ one parse per report
@pytest.fixture(scope="module")
def driven():
    world = make_observed_world(n_nodes=2, clients_per_node=2)
    for i, client in enumerate(world.clients):
        world.run(client.mkdir(f"/app/d{i}"))
        world.run(client.create(f"/app/d{i}/f"))
        world.run(client.getattr(f"/app/d{i}/f"))
    world.quiesce()
    world.hub.stop_samplers()
    return world.hub, world.hub.export()


@pytest.mark.parametrize("reader,trees", [
    (lambda hub, doc: hub.export(), 0),
    (lambda hub, doc: render_report(hub.tracer, doc), 0),
    (lambda hub, doc: chrome_trace(hub.tracer, doc), 1),
], ids=["export", "render_report", "chrome_trace"])
def test_each_reader_parses_the_event_log_once(driven, monkeypatch, reader,
                                               trees):
    """One ``op_rows`` parse per reader; ``trees`` is how many times the
    reader wraps that parse into ``Span`` objects on top."""
    hub, doc = driven
    calls = []

    def counted(name):
        real = getattr(Tracer, name)

        def method(self, *args):
            calls.append((name, self))
            return real(self, *args)

        monkeypatch.setattr(Tracer, name, method)

    counted("op_rows")
    counted("span_trees")
    reader(hub, doc)
    assert calls.count(("op_rows", hub.tracer)) == 1
    assert calls.count(("span_trees", hub.tracer)) == trees
    assert len(calls) == 1 + trees


def test_the_tables_render_from_a_document_read_back_from_disk(driven):
    """What ``report <metrics.json>`` (ROADMAP item 8b) needs: the table
    renderers take document sections, not a live run."""
    hub, doc = driven
    loaded = json.loads(hub.to_json(doc=doc))
    assert render_attribution_table(loaded["attribution"]) == \
        render_attribution_table(doc["attribution"])
    assert "client0.nic" in render_resource_table(loaded["resources"])


# --------------------------------------------------------- source guards
def _sources(*skip):
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC).as_posix() not in skip}


def _functions(source):
    """Top-level and method bodies, split on ``def`` lines."""
    return re.split(r"\n(?= *def )", source)


def _users(pattern, sources):
    return {name: len(re.findall(pattern, text))
            for name, text in sources.items() if re.search(pattern, text)}


def _defs(pattern, source):
    """Names of the functions of ``source`` whose body matches."""
    return [re.match(r" *def (\w+)", fn).group(1)
            for fn in _functions(source) if re.search(pattern, fn)]


class TestOneSpellingPerMechanism:
    def test_one_way_to_open_a_child_span(self):
        """``Tracer.open_child`` is the only context lookup + child
        span-id allocation + ``span.start`` record; the five stages call
        it, and ``span_start`` is gone."""
        sources = _sources()
        for gone in ("child_context", "current_context", "span_start"):
            assert not _users(gone, sources), gone
        trace = sources["sim/trace.py"]
        assert _defs(r'actor, "span\.start"', trace) == ["open_child"]
        # Span ids come from one counter: roots take theirs in
        # root_context, every child in open_child.
        assert _defs(r"_next_span_id (\+= 1|= span_id)", trace) == \
            ["root_context", "open_child"]
        assert _users(r"\.open_child\(", sources) == \
            {"core/client.py": 2, "sim/network.py": 3}

    def test_span_events_are_parsed_in_one_function(self):
        """``op_rows`` is the one parser: no other function of the trace
        module (or of any reader) matches span events by kind."""
        sources = _sources()
        for kind in (r"span\.start", r"span\.end"):
            assert _defs(rf'== "{kind}"', sources["sim/trace.py"]) == \
                ["op_rows"], kind
            assert _users(rf'== "{kind}"', sources) == {"sim/trace.py": 1}

    def test_one_interval_fold(self):
        folds = [name for name, text in _sources().items()
                 for fn in _functions(text)
                 if re.search(r'== "fault\.recovered"', fn)]
        assert folds == ["obs/timeline.py"]

    def test_one_series_reader(self):
        """Only ``slo.series_in_window`` unpacks a series' ``t``/``v``
        arrays or clips them to a window."""
        obs = {n: t for n, t in _sources().items() if n.startswith("obs/")}
        assert _users(r'\.get\("v"|\["v"\]', obs) == {"obs/slo.py": 1}
        assert _users(r"bisect_left\(ts, window\[0\]\)", obs) == \
            {"obs/slo.py": 1}
        assert not _users(r"window\[0\] <= t <= window\[1\]", obs)
        # ... and one function aggregates them (max | final | mean).
        slo = obs["obs/slo.py"]
        assert slo.count("max(v for") == slo.count("[-1][1]") == 1

    def test_readers_do_not_reach_into_the_live_hub(self):
        sources = _sources("obs/hub.py")
        assert not _users(r"\.stats\.series_export\(\)", sources)
        assert not _users(r"\.timeline\.events\(\)", sources)
        for reader in ("obs/chrome.py", "obs/profile.py", "obs/slo.py",
                       "obs/incidents.py", "obs/schema.py"):
            code = re.sub(r'""".*?"""', "", sources[reader], flags=re.S)
            assert not re.search(r"\bhub\.", code), reader
        assert "incidents" not in inspect.signature(chrome_trace).parameters

    def test_records_serialise_through_asdict(self):
        assert not hasattr(Verdict, "to_doc")
        assert not hasattr(IncidentRule, "to_doc")
        assert "asdict(self)" in inspect.getsource(ControlEvent.to_doc)

    def test_the_bench_contract_is_a_table(self):
        body = inspect.getsource(schema.validate_bench)
        assert "not in" not in body
        assert "REQUIRED_BENCH_FIELDS" in body
        sources = _sources()
        assert _users(r"def _?is_number", sources) == {"obs/schema.py": 1}

    def test_sim_imports_nothing_from_obs(self):
        sim = {n: t for n, t in _sources().items() if n.startswith("sim/")}
        assert not _users(r"repro\.obs", sim)
        assert not (SRC / "sim" / "stats.py").exists()
