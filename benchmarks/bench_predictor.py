"""§V-D: MAP-I predictor impact on a tags-in-data cache.

Paper: predictors yield only ~1.03-1.04x overall — far less than
TDRAM's deterministic early probing — while adding speculative
main-memory fetches (bandwidth bloat) on mispredictions.
"""

from benchmarks.conftest import run_and_render
from repro.experiments.figures import ExperimentContext
from repro.experiments.studies import predictor_study
from repro.workloads.suite import representative_suite


def test_predictor_study(benchmark, bench_config):
    ctx = ExperimentContext(config=bench_config,
                            specs=representative_suite()[:4],
                            demands_per_core=300, seed=7)
    result = run_and_render(benchmark, predictor_study, ctx)
    rows = result.rows[:-1]                 # the last row is the geomean
    speculating = [row for row in rows if row["speculative_fetches"]]
    assert speculating, "no workload made a speculative fetch"
    for row in rows:
        if not row["speculative_fetches"]:
            # a predictor that fetches nothing must not move timing
            assert row["speedup"] == 1.0, row
    for row in speculating:
        assert 1.0 < row["speedup"] < 1.25, row  # modest, as the paper reports
