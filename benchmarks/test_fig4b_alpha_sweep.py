"""Figure 4(b): benefit ratio vs the termination parameter alpha.

At 8 concurrent queries, alpha trades off two costs (Section 3.1.4): a
small alpha forces frequent synthetic-query rebuilds — extra abort/inject
floods — while a large alpha tolerates synthetic queries that over-request
data nobody needs any more.

Paper: "when there are 8 simultaneous queries, the most benefit is obtained
when alpha=0.6", with alpha mattering much less than concurrency.
"""

from repro.harness import print_table
from repro.harness.experiments import fig4b_series

from _util import run_once, sweep_workers


def test_fig4b(benchmark):
    series = run_once(benchmark, fig4b_series,
                      workers=sweep_workers())
    print_table(
        ["alpha", "benefit ratio", "network operations"],
        [[a, f"{r:.4f}", f"{ops:.0f}"] for a, r, ops in series],
        title="Figure 4(b) — alpha sweep at 8 concurrent queries",
    )
    by_alpha = {a: r for a, r, _ in series}
    ops_by_alpha = {a: ops for a, _, ops in series}
    # Rebuild traffic must fall as alpha grows (the mechanism behind the
    # trade-off), and the effect on the ratio stays small (paper: "the
    # parameter alpha has less effect on the benefit ratio").
    assert ops_by_alpha[0.0] > ops_by_alpha[1.2]
    spread = max(by_alpha.values()) - min(by_alpha.values())
    assert spread < 0.05
    # alpha=0.6 must be at least as good as the aggressive extreme.
    assert by_alpha[0.6] >= by_alpha[0.0]
