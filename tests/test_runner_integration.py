"""Integration tests: full simulations through the experiment runner."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cache import DESIGNS
from repro.config.system import MIB, SystemConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_experiment
from repro.workloads import uniform_spec, workload
from repro.workloads.synthetic import stream_spec

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)
DEMANDS = 200


@pytest.mark.parametrize("design", sorted(DESIGNS))
class TestEveryDesignRuns:
    def test_runs_to_completion_with_sane_metrics(self, design):
        result = run_experiment(design, "bfs.22", FAST,
                                demands_per_core=DEMANDS, seed=11)
        assert result.design == design
        assert result.runtime_ps > 0
        assert result.demands > 0 or design == "no_cache"
        assert result.read_latency_ns > 0
        assert 0.0 <= result.miss_ratio <= 1.0
        assert result.bloat_factor >= 1.0
        assert result.energy_pj > 0


class TestArchitecturalConsistency:
    """The same demand stream must see the same architectural behaviour
    under every design — only the timing/energy differ."""

    def test_miss_ratios_agree_across_designs(self):
        spec = workload("pr.25")
        ratios = {}
        for design in ("cascade_lake", "alloy", "ndc", "tdram", "ideal"):
            result = run_experiment(design, spec, FAST,
                                    demands_per_core=DEMANDS, seed=11)
            ratios[design] = result.miss_ratio
        values = list(ratios.values())
        assert max(values) - min(values) < 0.1, ratios

    def test_fitting_workload_has_low_miss_ratio(self):
        result = run_experiment("cascade_lake", "lu.C", FAST,
                                demands_per_core=DEMANDS, seed=11)
        assert result.miss_ratio < 0.3

    def test_oversized_workload_has_high_miss_ratio(self):
        result = run_experiment("cascade_lake", "ft.D", FAST,
                                demands_per_core=DEMANDS, seed=11)
        assert result.miss_ratio > 0.5

    def test_breakdown_sums_to_one(self):
        result = run_experiment("tdram", "is.D", FAST,
                                demands_per_core=DEMANDS, seed=11)
        assert sum(result.breakdown.values()) == pytest.approx(1.0)


class TestPaperQualitativeResults:
    """The headline orderings, on a fast configuration."""

    def test_tdram_tag_check_fastest(self):
        latencies = {}
        for design in ("cascade_lake", "alloy", "bear", "ndc", "tdram"):
            result = run_experiment(design, "pr.25", FAST,
                                    demands_per_core=400, seed=11)
            latencies[design] = result.tag_check_ns
        assert latencies["tdram"] == min(latencies.values()), latencies
        assert latencies["tdram"] < latencies["ndc"] < latencies["cascade_lake"]

    def test_tdram_and_ndc_have_least_bloat(self):
        bloats = {}
        for design in ("cascade_lake", "alloy", "bear", "ndc", "tdram"):
            result = run_experiment(design, "ft.D", FAST,
                                    demands_per_core=400, seed=11)
            bloats[design] = result.bloat_factor
        assert bloats["alloy"] == max(bloats.values())
        assert bloats["tdram"] == pytest.approx(bloats["ndc"], rel=0.1)
        assert bloats["tdram"] < bloats["bear"] < bloats["alloy"]

    def test_probe_conflicts_below_one_percent_on_real_workload(self):
        """§III-E2: probing-induced bank conflicts < 1 % of demands."""
        result = run_experiment("tdram", "pr.25", FAST,
                                demands_per_core=400, seed=11)
        assert result.probes > 0
        assert result.probe_bank_conflicts <= max(1, result.demands // 100)

    def test_caches_speed_up_fitting_workloads(self):
        # Full 8-core intensity: the regime where DDR5 alone saturates
        # and the HBM cache's bandwidth pays off (Fig. 12's low-miss bars).
        config = FAST.with_(cores=8)
        base = run_experiment("no_cache", "cg.C", config,
                              demands_per_core=400, seed=11)
        cached = run_experiment("tdram", "cg.C", config,
                                demands_per_core=400, seed=11)
        assert cached.speedup_over(base) > 1.2


class TestRunnerMechanics:
    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("sram_forever", "lu.C", FAST)

    def test_accepts_spec_objects(self):
        spec = uniform_spec(footprint_gib=1.0)
        result = run_experiment("ideal", spec, FAST, demands_per_core=100,
                                seed=2)
        assert result.workload == "uniform"

    def test_warmup_excluded_from_stats(self):
        spec = uniform_spec(footprint_gib=0.5)
        full = run_experiment("cascade_lake", spec, FAST,
                              demands_per_core=300, seed=2)
        # warm-up consumed some demands: measured < total issued
        assert full.demands < 300 * FAST.cores

    def test_prewarm_makes_fitting_workload_hit(self):
        spec = stream_spec(footprint_gib=1.0)  # 1/8 of the paper cache
        result = run_experiment("cascade_lake", spec, FAST,
                                demands_per_core=200, seed=2)
        assert result.miss_ratio < 0.2

    def test_flush_stats_populated_for_tdram(self):
        result = run_experiment("tdram", "is.D", FAST,
                                demands_per_core=300, seed=2)
        assert result.flush_max_occupancy >= 0
        assert isinstance(result.flush_unloads, dict)

    def test_speedup_over_self_is_one(self):
        result = run_experiment("ideal", "lu.C", FAST, demands_per_core=100,
                                seed=2)
        assert result.speedup_over(result) == 1.0


def test_ddr5_backend_field_is_empty():
    result = run_experiment("tdram", "bfs.22", config=SystemConfig.small(),
                            demands_per_core=100, seed=11)
    assert result.backend == {}


#: run in a fresh interpreter in which ``import numpy`` fails
_WITHOUT_NUMPY = textwrap.dedent("""
    import sys
    sys.modules["numpy"] = None
    import repro.experiments.campaign
    from repro.cache import DESIGNS
    from repro.config.system import MIB, SystemConfig
    from repro.experiments.runner import run_experiment

    config = SystemConfig(cache_capacity_bytes=4 * MIB,
                          mm_capacity_bytes=64 * MIB, cores=4)
    for design in sorted(DESIGNS):
        run_experiment(design, "ft.D", config, demands_per_core=30, seed=3)
    run_experiment("tdram", "ft.D", config.with_(cache_ways=2),
                   demands_per_core=30, seed=3)

    NOT_SIMULATOR = (
        "concurrent.futures.process", "multiprocessing",
        "repro.dram.monitor",
        "repro.experiments.figures", "repro.experiments.sweeps",
        "repro.core.area", "repro.core.ways", "repro.core.tag_mats",
        "repro.stats.dump", "repro.stats.estimator",
    )
    loaded = [name for name in NOT_SIMULATOR if name in sys.modules]
    loaded += [name for name in sys.modules
               if name.startswith("repro.obs.") and name != "repro.obs.config"]
    assert not loaded, f"a plain run loaded {loaded}"
""")


def test_simulations_need_no_numpy():
    """numpy is a test dependency only. With ``import numpy`` failing,
    every design runs ft.D and tdram runs it on a 2-way cache: the lazy
    prewarm, BEAR's bypass draws, and the eager prewarm of the 2-way
    store (more blocks than sets).

    A plain run imports only the simulator: after importing the
    campaign engine and running every design serially, the process has
    loaded neither the process pool (``concurrent.futures.process``,
    ``multiprocessing``), nor any ``repro.obs`` module but its config,
    nor the command monitor, nor the figure and sweep code, nor the
    area, way-select and tag-mat models, nor the stats dump and the
    estimator. Because every design runs, a module that was merely
    moved from the import into a run would show up here too."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
