"""Tests for config sweeps."""

import pytest

from repro.config.system import MIB, SystemConfig
from repro.errors import ConfigError
from repro.experiments.figures import ExperimentContext
from repro.experiments.sweeps import config_sweep, mlp_sweep
from repro.workloads import workload

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)


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
