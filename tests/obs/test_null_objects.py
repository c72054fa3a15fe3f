"""The null objects are inert — checked against the real classes.

``NULL_HUB``, ``NULL_TRACER`` and ``NULL_TIMELINE`` are plain instances of
``MetricsHub``, ``Tracer`` and ``Timeline`` with ``enabled`` off; what
makes them inert is the early return at the top of every recorder.  A
recorder added without that return would silently record into the shared
null instance, so the recorders are *discovered*, not listed: every public
method is called on a fresh live instance with arguments synthesized from
its annotations, and any method that changes the recorded state (a
counter, sketch, series, event or ``dropped``) is a recorder — which must
then leave the null instance's state untouched.
"""

import inspect
import json

import pytest

from repro.obs.hub import NULL_HUB, MetricsHub
from repro.obs.timeline import NULL_TIMELINE, Timeline
from repro.sim.trace import NULL_TRACER, SpanContext, Tracer

#: One sample value per annotation the recording surfaces use.
SAMPLES = {"str": "x", "float": 1.5, "int": 2, "bool": True, "Any": "x",
           "SpanContext": SpanContext(op_id=1, span_id=2)}


def _hub_state(hub):
    return json.dumps([hub.stats.counters(), hub.stats.histograms(),
                       hub.stats.series_export(), hub.error_count,
                       hub.timeline.export()], sort_keys=True)


def _tracer_state(tracer):
    return (len(tracer), tracer.dropped, list(tracer.events()))


def _timeline_state(timeline):
    return json.dumps(timeline.export(), sort_keys=True)


#: ``(class, null instance, state fingerprint, wiring methods)`` — wiring
#: methods take live objects (regions, resources, clients), cannot be
#: synthesized from annotations, and are not recorders.
SURFACES = [
    (MetricsHub, NULL_HUB, _hub_state,
     {"attach_region", "track_member"}),
    (Tracer, NULL_TRACER, _tracer_state, set()),
    (Timeline, NULL_TIMELINE, _timeline_state, set()),
]


def _sample_args(method):
    """Required arguments from annotations, or None if one is opaque."""
    args = []
    for param in inspect.signature(method).parameters.values():
        if (param.default is not param.empty
                or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD)):
            continue
        if param.annotation not in SAMPLES:
            return None
        args.append(SAMPLES[param.annotation])
    return args


def _call(instance, name):
    method = getattr(instance, name)
    result = method(*_sample_args(method))
    if callable(result):
        # A recorder may hand back a bound recorder (``series_recorder``
        # returns one series' ``append``): exercise that too.
        result(1.5, 2.5)


def _public_methods(cls):
    return [name for name, _fn in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")]


def _discover(cls, state):
    """Split a class's public methods into recorders and opaque ones."""
    recorders, opaque = [], set()
    for name in _public_methods(cls):
        live = cls()
        if _sample_args(getattr(live, name)) is None:
            opaque.add(name)
            continue
        before = state(live)
        _call(live, name)
        if state(live) != before:
            recorders.append(name)
    return recorders, opaque


@pytest.mark.parametrize("cls,null,state,wiring", SURFACES,
                         ids=[surface[0].__name__ for surface in SURFACES])
def test_every_recorder_is_inert_on_the_null_instance(cls, null, state,
                                                      wiring):
    recorders, opaque = _discover(cls, state)
    assert recorders, f"no recorder discovered on {cls.__name__}"
    # A new public method with an un-synthesizable signature must be
    # classified here on purpose, not skipped by accident.
    assert opaque == wiring
    assert type(null) is cls and null.enabled is False
    before = state(null)
    for name in recorders:
        _call(null, name)
        assert state(null) == before, (
            f"{cls.__name__}.{name} recorded into the disabled instance")


def test_discovery_finds_the_known_recorders():
    """The discovery is not blind: it finds the recorders hot paths use."""
    found = {cls.__name__: set(_discover(cls, state)[0])
             for cls, _null, state, _wiring in SURFACES}
    assert {"observe_op", "observe_commit", "observe", "observe_staleness",
            "observe_visibility", "count", "record_sample",
            "series_recorder"} <= found["MetricsHub"]
    assert {"emit", "span_end"} <= found["Tracer"]
    assert {"record"} <= found["Timeline"]
