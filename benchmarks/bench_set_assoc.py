"""§V-F: set-associative TDRAM (1/2/4/8/16 ways).

Paper: the HPC workloads have negligible conflict misses, so all
associativities achieve similar speedups over the main-memory-only
system.
"""

from benchmarks.conftest import run_and_render
from repro.experiments.figures import ExperimentContext
from repro.experiments.studies import set_associativity_study
from repro.workloads.suite import representative_suite


def test_set_associativity(benchmark, bench_config):
    ctx = ExperimentContext(config=bench_config,
                            specs=representative_suite()[:4],
                            demands_per_core=300, seed=7)
    result = run_and_render(benchmark, set_associativity_study, ctx,
                            ways=(1, 2, 4, 8, 16))
    speedups = [row["speedup_vs_no_cache"] for row in result.rows]
    assert max(speedups) / min(speedups) < 1.2  # "similar speedup"
