"""§V-A ablation: TDRAM without early tag probing ~ NDC.

Paper: "We also analyzed the tag check latency for TDRAM without early
tag probing which had a result similar to NDC"; probing improves tag
checks by up to 70 % on large high-miss workloads.
"""

import pytest

from benchmarks.conftest import run_and_render
from repro.experiments.figures import ExperimentContext
from repro.experiments.studies import probing_ablation
from repro.workloads.suite import representative_suite


def test_probing_ablation(benchmark, bench_config):
    ctx = ExperimentContext(config=bench_config,
                            specs=representative_suite(),
                            demands_per_core=300, seed=7)
    result = run_and_render(benchmark, probing_ablation, ctx)
    for row in result.rows:
        # Without probing, TDRAM's tag check degrades towards NDC's.
        assert row["tdram_noprobe_tag_ns"] >= row["tdram_tag_ns"] * 0.95
        assert row["tdram_noprobe_tag_ns"] == pytest.approx(
            row["ndc_tag_ns"], rel=0.4)
