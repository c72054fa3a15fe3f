"""Elasticity smoke bench: the flash-crowd autoscaling claim holds.

The gated elasticity artefact is the ``pacon.bench/v1`` snapshot of the
``elastic`` experiment (``pacon-bench figure elastic --scale smoke
--bench-out elastic_fresh.json``), which CI compares against
``benchmarks/baseline_elastic.json``: everything compared in it is
simulated and seed-deterministic (the diurnal curve is a triangle wave,
not a sine), so a change to the controller's hysteresis, the
migration path, or the bench workload shows up as a snapshot diff even
when the tier-1 tests still pass.  This file is the pytest face collected
with the rest of ``benchmarks/``: once adapted, the autoscaled run beats
static_min on steady-state flash p99 while costing fewer node-seconds
than static_peak.
"""


def test_elastic_smoke_autoscale_beats_static_provisioning():
    from repro.bench import elastic

    result = elastic.run("smoke")
    auto = result.where(mode="autoscale")[0]
    assert auto["scale_ups"] > 0  # the controller really acted
    assert auto["scale_downs"] > 0  # ... and shrank back after the burst
    # Acceptance axis: steady-state flash p99 beats static_min at a
    # node-second cost below static_peak.
    assert result.derived["steady_p99_speedup_vs_static_min"] > 1.0
    assert result.derived["cost_ratio_vs_static_peak"] < 1.0
