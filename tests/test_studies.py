"""Tests for the §V-D/E/F studies and the probing ablation."""

import pytest

from repro.config.system import MIB, SystemConfig
from repro.experiments.figures import ExperimentContext
from repro.experiments.studies import (
    flush_buffer_sensitivity,
    predictor_study,
    probing_ablation,
    set_associativity_study,
)
from repro.workloads import workload
from repro.workloads.synthetic import write_storm_spec

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)
SPECS = [workload("cg.C"), workload("is.D")]


def context(demands_per_core, specs=SPECS):
    """A fresh context on the fast config, seed 3."""
    return ExperimentContext(config=FAST, specs=specs,
                             demands_per_core=demands_per_core, seed=3)


class TestFlushBufferSensitivity:
    def test_reports_all_sizes(self):
        result = flush_buffer_sensitivity(context(300), sizes=(8, 16))
        assert [row["entries"] for row in result.rows] == [8, 16]

    def test_sixteen_entries_never_stall(self):
        """§V-E: a 16-entry buffer prevents TDRAM stalls."""
        result = flush_buffer_sensitivity(context(400), sizes=(16,))
        row = result.rows[0]
        assert row["stalls"] == 0
        assert row["max_occupancy"] <= 16

    def test_smaller_buffers_stall_no_less(self):
        result = flush_buffer_sensitivity(context(400), sizes=(2, 32),
                                          spec=write_storm_spec())
        by_size = {row["entries"]: row for row in result.rows}
        assert by_size[2]["stalls"] >= by_size[32]["stalls"]

    def test_unload_channels_used(self):
        result = flush_buffer_sensitivity(context(400), sizes=(16,))
        row = result.rows[0]
        total_unloads = (row["unload_read_miss_clean"]
                         + row["unload_refresh"] + row["unload_forced"])
        assert total_unloads > 0


class TestSetAssociativity:
    def test_speedups_similar_across_ways(self):
        """§V-F: the HPC workloads gain little from associativity."""
        result = set_associativity_study(context(200), ways=(1, 4))
        speedups = [row["speedup_vs_no_cache"] for row in result.rows]
        assert max(speedups) / min(speedups) < 1.25

    def test_miss_ratio_never_increases_with_ways(self):
        result = set_associativity_study(context(200), ways=(1, 8))
        by_ways = {row["ways"]: row["mean_miss_ratio"] for row in result.rows}
        assert by_ways[8] <= by_ways[1] + 0.05


class TestProbingAblation:
    def test_no_probe_tdram_close_to_ndc(self):
        """§V-A: TDRAM without probing behaves like NDC."""
        result = probing_ablation(context(300))
        for row in result.rows:
            assert row["tdram_noprobe_tag_ns"] == \
                pytest.approx(row["ndc_tag_ns"], rel=0.35)

    def test_probing_never_hurts_tag_checks(self):
        result = probing_ablation(context(300))
        for row in result.rows:
            assert row["probing_gain"] >= 0.9


class TestPredictorStudy:
    def test_predictor_gain_is_modest(self):
        """§V-D: MAP-I yields only ~1.03-1.04x."""
        result = predictor_study(context(300))
        geo = result.rows[-1]["speedup"]
        assert 0.9 < geo < 1.25

    def test_speculative_fetches_counted(self):
        result = predictor_study(context(300, [workload("is.D")]))
        assert result.rows[0]["speculative_fetches"] > 0
