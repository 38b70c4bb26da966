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
    geo = result.rows[-1]["speedup"]
    assert 0.85 < geo < 1.2  # incremental at best, as the paper reports
