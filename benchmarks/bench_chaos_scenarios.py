"""Chaos smoke bench: the headline fault scenario converges.

The gated chaos artefact is the ``pacon.bench/v1`` snapshot of the
``chaos`` experiment (``pacon-bench figure chaos --scale smoke
--bench-out chaos_fresh.json``), which CI compares against
``benchmarks/baseline_chaos.json``: every
scenario's outcome is simulated and seed-deterministic, so a change that
alters how crashes, partitions, or churn resolve shows up as a snapshot
diff even when the tier-1 tests still pass.  This file is the pytest
face collected with the rest of ``benchmarks/``.
"""


def test_chaos_smoke_mds_crash_converges():
    from repro.chaos.scenarios import run_scenario

    result = run_scenario("mds_crash")
    assert result.ok, result.report.problems
    assert result.replays > 0  # the crash really hit in-flight commits
