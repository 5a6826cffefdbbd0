"""Figure 4(a): benefit ratio vs number of concurrent queries (Section 4.3).

The Section 4.3 adaptive workload — 500 random queries, one arrival every
40 s on average, duration tuned so the average concurrency sweeps 8 → 48 —
is replayed through the tier-1 optimizer; the benefit ratio is the fraction
of modelled transmission cost removed by rewriting (abort/inject flood
costs charged).

Paper: "the benefit ratio increases significantly from around 32% to 82%
as the number of current queries increases from 8 to 48".
"""

from repro.harness import print_table
from repro.harness.experiments import fig4a_series

from _util import run_once, sweep_workers


def test_fig4a(benchmark):
    series = run_once(benchmark, fig4a_series,
                      workers=sweep_workers())
    print_table(
        ["concurrent queries", "benefit ratio", "avg synthetic queries"],
        [[c, f"{r:.3f}", f"{s:.2f}"] for c, r, s in series],
        title="Figure 4(a) — benefit ratio vs concurrency (alpha=0.6, "
              "500 queries, 64 nodes)",
    )
    ratios = [r for _, r, _ in series]
    # Shape: monotonically increasing, spanning roughly the paper's band.
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.25 <= ratios[0] <= 0.45     # paper: ~0.32 at concurrency 8
    assert 0.70 <= ratios[-1] <= 0.92    # paper: ~0.82 at concurrency 48
