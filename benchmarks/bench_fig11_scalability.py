"""Fig. 11 bench: creation scalability — Pacon's normalized curve grows
past both baselines, whose curves flatten."""

from repro.bench import fig11


def test_fig11_scalability(benchmark, scale):
    result = benchmark.pedantic(fig11.run, args=(scale,), iterations=1,
                                rounds=1)
    points = fig11.SCALES[scale]["points"]
    max_clients = max(n * c for n, c in points)
    pacon = result.where(system="pacon", clients=max_clients)[0]
    beegfs = result.where(system="beegfs", clients=max_clients)[0]
    indexfs = result.where(system="indexfs", clients=max_clients)[0]
    # Pacon scales better than both baselines (paper: ~16.5x / ~2.8x at
    # 320 clients; smaller factors at smoke scale, same ordering).
    factor = 1.2 if scale == "smoke" else 1.5
    assert pacon["normalized"] > beegfs["normalized"] * factor
    assert pacon["normalized"] > indexfs["normalized"] * 1.2
    # Pacon's normalized curve is monotonically non-decreasing.
    norms = [r["normalized"] for r in result.where(system="pacon")]
    assert all(b >= a * 0.9 for a, b in zip(norms, norms[1:]))


def test_fig11_wide_scalability(benchmark, scale):
    """The faithful Pacon sweep carried past the fig11 maximum keeps
    growing: one simulated process per client, no multiplier."""
    result = benchmark.pedantic(fig11.run_wide, args=(scale,),
                                iterations=1, rounds=1)
    faithful_max = max(n * c for n, c in fig11.SCALES[scale]["points"])
    assert max(result.column("clients")) >= 2 * faithful_max
    assert {row["system"] for row in result.rows} == {"pacon"}
    norms = result.column("normalized")
    assert norms[0] == 1.0
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert result.derived["pacon_peak_ops_per_sec"] == \
        max(result.column("ops_per_sec"))
