"""TDRAM mechanism ablation (extension beyond the paper's §V-A).

Removes TDRAM's mechanisms one at a time — probing, opportunistic
flush unloads, all-bank refresh windows — to attribute the end-to-end
benefit per feature, the analysis an artifact evaluation would run.
"""

from benchmarks.conftest import run_and_render
from repro.experiments.ablations import tdram_ablation
from repro.experiments.figures import ExperimentContext
from repro.workloads.suite import representative_suite


def test_tdram_ablation(benchmark, bench_config):
    ctx = ExperimentContext(config=bench_config,
                            specs=representative_suite(),
                            demands_per_core=300, seed=7)
    result = run_and_render(benchmark, tdram_ablation, ctx)
    by = {row["variant"]: row for row in result.rows}
    # Probing is the latency mechanism: removing it slows tag checks.
    assert by["no_probing"]["tag_check_ns"] > by["full"]["tag_check_ns"]
    # Opportunistic unloads are what keep forced drains at zero (§V-E).
    assert by["full"]["forced_unloads"] == 0
    assert by["forced_unloads"]["forced_unloads"] > 0
