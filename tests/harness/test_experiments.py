"""Fast tests of the canonical experiment functions (small configurations).

The benchmarks run these at paper scale; here we verify the plumbing with
cheap parameters so `pytest tests/` stays quick.
"""

from repro.harness import Strategy
from repro.harness.experiments import (
    STRATEGY_ORDER,
    fig3_results,
    fig3_rows,
    fig4a_series,
    fig4b_series,
    fig4c_table,
    fig5_table,
)


class TestFig3:
    def test_results_and_rows(self):
        results = fig3_results("A", side=3, duration_ms=30_000.0, seed=1)
        assert set(results) == set(Strategy)
        rows = fig3_rows(results)
        assert len(rows) == 4
        assert [row[0] for row in rows] == [s.value for s in STRATEGY_ORDER]
        assert rows[0][-1] == "-"  # baseline has no savings entry
        assert rows[-1][-1].endswith("%")


class TestFig4:
    def test_fig4a_small(self):
        series = fig4a_series(concurrencies=(4, 12), seeds=(1,),
                              n_nodes=16, n_queries=60)
        assert len(series) == 2
        (c1, r1, s1), (c2, r2, s2) = series
        assert (c1, c2) == (4, 12)
        assert 0.0 <= r1 <= 1.0 and 0.0 <= r2 <= 1.0
        assert r2 > r1  # more concurrency, more sharing
        assert s1 > 0 and s2 > 0

    def test_fig4b_small(self):
        series = fig4b_series(alphas=(0.0, 1.0), seeds=(1, 2),
                              n_nodes=16, n_queries=60)
        assert [a for a, _, _ in series] == [0.0, 1.0]
        ops = {a: o for a, _, o in series}
        assert ops[0.0] >= ops[1.0]

    def test_fig4c_small(self):
        table = fig4c_table(concurrencies=(6,), alphas=(0.6,), seeds=(1,),
                            n_nodes=16, n_queries=60)
        assert set(table) == {(6, 0.6)}
        assert 0.5 < table[(6, 0.6)] < 6.0


class TestFig5:
    def test_fig5_small(self):
        table = fig5_table(selectivities=(0.5, 1.0), compositions=(0.0,),
                           side=3, duration_ms=30_000.0)
        assert set(table) == {(0.0, 0.5), (0.0, 1.0)}
        # sharing improves with selectivity even on a tiny grid
        assert table[(0.0, 1.0)] > table[(0.0, 0.5)] - 10.0
        assert table[(0.0, 1.0)] > 30.0
