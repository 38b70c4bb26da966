"""Tests for the TDRAM mechanism-ablation matrix."""

import pytest

from repro.config.system import MIB, SystemConfig
from repro.experiments.ablations import ABLATION_VARIANTS, tdram_ablation
from repro.experiments.figures import ExperimentContext
from repro.workloads import workload

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)


class TestAblationMatrix:
    @pytest.fixture(scope="class")
    def table(self):
        return tdram_ablation(ExperimentContext(
            config=FAST, specs=[workload("is.D"), workload("pr.25")],
            demands_per_core=250, seed=7))

    def test_all_variants_present(self, table):
        assert {row["variant"] for row in table.rows} == \
            set(ABLATION_VARIANTS)

    def test_full_is_the_reference(self, table):
        full = next(r for r in table.rows if r["variant"] == "full")
        assert full["runtime_vs_full"] == pytest.approx(1.0)

    def test_removing_probing_slows_tag_checks(self, table):
        by = {row["variant"]: row for row in table.rows}
        assert by["no_probing"]["tag_check_ns"] >= \
            by["full"]["tag_check_ns"] * 0.98
        assert by["no_probing"]["queue_delay_ns"] >= \
            by["full"]["queue_delay_ns"] * 0.95

    def test_forced_only_policy_forces_drains(self, table):
        by = {row["variant"]: row for row in table.rows}
        assert by["forced_unloads"]["forced_unloads"] > 0
        assert by["full"]["forced_unloads"] == 0

    def test_runtimes_stay_within_sane_band(self, table):
        for row in table.rows:
            assert 0.8 < row["runtime_vs_full"] < 1.3, row
