"""§V-D (prefetchers): stride prefetching on TDRAM.

Paper: "Our preliminary analysis shows incremental performance gain
from prefetchers as well … prefetchers introduce interference with
demand accesses and consume excessive bandwidth."
"""

from benchmarks.conftest import run_and_render
from repro.experiments.figures import ExperimentContext
from repro.experiments.studies import prefetcher_study
from repro.workloads.suite import representative_suite


def test_prefetcher_study(benchmark, bench_config):
    ctx = ExperimentContext(config=bench_config,
                            specs=representative_suite()[:4],
                            demands_per_core=300, seed=7)
    result = run_and_render(benchmark, prefetcher_study, ctx)
    rows = result.rows[:-1]                 # the last row is the geomean
    prefetching = [row for row in rows if row["prefetches"]]
    for row in rows:
        if not row["prefetches"]:
            # a prefetcher that issues nothing must not move timing
            assert row["speedup"] == 1.0, row
    assert any(row["extra_bloat"] > 0 for row in prefetching), \
        "no workload's prefetches added bloat"
    for row in prefetching:
        # incremental at best, as the paper reports; the upper bound is
        # bench_predictor.py's on the same "modest" claim
        assert 0.85 < row["speedup"] < 1.25, row
