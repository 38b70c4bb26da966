"""Tests for result reporting (JSON/tables) and config sweeps."""

import json

import pytest

from repro.config.system import MIB, SystemConfig
from repro.errors import ConfigError
from repro.experiments.figures import ExperimentContext
from repro.experiments.runner import run_experiment
from repro.experiments.sweeps import config_sweep, mlp_sweep
from repro.stats.report import (
    breakdown_bar,
    comparison_table,
    result_to_dict,
    results_to_json,
)
from repro.workloads import workload

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)


@pytest.fixture(scope="module")
def results():
    return [
        run_experiment(design, "bfs.22", FAST, demands_per_core=150, seed=5)
        for design in ("cascade_lake", "tdram")
    ]


class TestJsonExport:
    def test_single_result_roundtrips(self, results):
        payload = json.loads(results_to_json(results[0]))
        assert payload["design"] == "cascade_lake"
        assert payload["runtime_ns"] > 0
        assert isinstance(payload["breakdown"], dict)

    def test_list_export(self, results):
        payload = json.loads(results_to_json(results))
        assert [p["design"] for p in payload] == ["cascade_lake", "tdram"]

    def test_dict_has_every_dataclass_field(self, results):
        payload = result_to_dict(results[0])
        for field in ("tag_check_ns", "bloat_factor", "energy_pj",
                      "miss_ratio", "flush_unloads"):
            assert field in payload


class TestComparisonTable:
    def test_table_contains_designs_and_headers(self, results):
        text = comparison_table(results)
        assert "cascade_lake" in text and "tdram" in text
        assert "tag(ns)" in text

    def test_speedup_column(self, results):
        text = comparison_table(results, baseline="cascade_lake")
        assert "speedup_vs_cascade_lake" in text
        assert "1.000" in text  # the baseline against itself

    def test_unknown_baseline_rejected(self, results):
        with pytest.raises(ValueError):
            comparison_table(results, baseline="quantum")


class TestBreakdownBar:
    def test_bar_width_fixed(self):
        bar = breakdown_bar({"read_hit": 0.5, "read_miss_clean": 0.5},
                            width=20)
        assert len(bar) == 20
        assert bar.count("R") == 10 and bar.count("c") == 10

    def test_empty_breakdown(self):
        assert breakdown_bar({}, width=8) == " " * 8


def context(name):
    """A fresh context on the fast config: one workload, 150 demands/core,
    seed 5."""
    return ExperimentContext(config=FAST, specs=[workload(name)],
                             demands_per_core=150, seed=5)


class TestSweeps:
    def test_flush_size_sweep_runs(self):
        result = config_sweep(context("is.D"), "flush_buffer_entries",
                              [8, 32], baseline_design=None)
        assert [row["flush_buffer_entries"] for row in result.rows] == [8, 32]
        assert all(row["tag_check_ns"] > 0 for row in result.rows)

    def test_mlp_sweep_speedup_monotone_enough(self):
        result = mlp_sweep(context("cg.C"), values=(1, 8))
        rows = {row["max_outstanding_reads_per_core"]: row
                for row in result.rows}
        # More MLP never hurts the cache's advantage by much.
        assert rows[8]["speedup_vs_no_cache"] > 0.5

    def test_capacity_sweep_with_fixed_footprint(self):
        result = config_sweep(
            context("pr.25"), "cache_capacity_bytes", [2 * MIB, 8 * MIB],
            baseline_design=None, hold_footprint=True,
        )
        rows = {row["cache_capacity_bytes"]: row for row in result.rows}
        # Growing the cache against a fixed footprint lowers the miss ratio.
        assert rows[8 * MIB]["mean_miss_ratio"] < \
            rows[2 * MIB]["mean_miss_ratio"]

    def test_unknown_parameter_rejected(self):
        # ``scale`` and ``cache_blocks`` are SystemConfig properties, not
        # fields a point could set.
        for parameter in ("warp_drive", "scale", "cache_blocks"):
            with pytest.raises(ConfigError, match=parameter):
                config_sweep(context("is.D"), parameter, [1])
