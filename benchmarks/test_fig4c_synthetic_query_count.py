"""Figure 4(c): average number of synthetic queries (Section 4.3).

Scalability of tier-1: how many synthetic queries the base station keeps
running as user-query concurrency grows, for several alpha settings.

Paper: "The average number of synthetic queries is less than 4 even when
the number of concurrent queries reaches 48.  As the value of alpha
increases, the average number of synthetic queries slightly decreases."
"""

from repro.harness import print_table
from repro.harness.experiments import fig4c_table

from _util import run_once

CONCURRENCIES = (8, 16, 24, 32, 40, 48)
ALPHAS = (0.2, 0.6, 1.0)


def test_fig4c(benchmark):
    table = run_once(benchmark, fig4c_table, CONCURRENCIES, ALPHAS)
    rows = [
        [concurrency] + [f"{table[(concurrency, a)]:.2f}" for a in ALPHAS]
        for concurrency in CONCURRENCIES
    ]
    print_table(
        ["concurrent queries"] + [f"alpha={a}" for a in ALPHAS],
        rows,
        title="Figure 4(c) — average number of synthetic queries",
    )
    # Paper's headline: fewer than 4 synthetic queries even at 48.
    for concurrency in CONCURRENCIES:
        for alpha in ALPHAS:
            assert table[(concurrency, alpha)] < 4.0
    # Larger alpha never increases the synthetic count materially.
    for concurrency in CONCURRENCIES:
        assert table[(concurrency, 1.0)] <= table[(concurrency, 0.2)] + 0.05
