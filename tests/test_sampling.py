"""Event-queue A/B + SMARTS sampling: equivalence, estimator, caching.

Three contracts under test:

* **Bit-identity of the event queue** — a whole-run ``asdict`` A/B of
  the production time-slot queue against the reference binary heap
  (``tests/heap_reference.py``, swapped in for the runner's
  ``Simulator``) for the paper's headline designs, exact and sampled.
  Not a spot check of a few counters: every RunResult field,
  recursively.
* **Estimator correctness** — window planning, the Student-t CI math,
  the functional fast-forward's architectural transitions, and the
  accuracy of sampled estimates against exact same-seed runs on figure
  workloads where sampling is sound (see docs/faq.md).
* **Cache soundness** — every sampling knob participates in the
  campaign cache key, so a sampled result can never be served for an
  exact request. ``tests/test_campaign.py`` checks the general rule
  over every config field; these tests pin the specific fields.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.cache import DESIGNS
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiments.campaign import ResultCache, cache_key
from repro.experiments import runner
from repro.experiments.runner import run_experiment
from repro.sim.kernel import Simulator
from repro.memory.backend import build_backend
from repro.energy.power_model import EnergyMeter
from repro.sim.sampling import (
    SamplingConfig,
    estimate,
    functional_fastforward,
    plan,
    t_critical,
)
from repro.workloads.suite import demand_stream, workload
from tests.heap_reference import HeapSimulator


def _sampled_config(**overrides) -> SystemConfig:
    defaults = dict(enabled=True, detail_demands=120,
                    fastforward_demands=280, warmup_windows=1)
    defaults.update(overrides)
    return SystemConfig.small().with_(sampling=SamplingConfig(**defaults))


# ---------------------------------------------------------------------------
# Whole-run A/B: the time-slot queue is bit-identical to the heap oracle
# ---------------------------------------------------------------------------
def _heap_ab(monkeypatch, *args, **kwargs):
    """Run one experiment on the production queue, then on the
    reference heap, and return both results as ``asdict`` trees."""
    slots = run_experiment(*args, **kwargs)
    monkeypatch.setattr(runner, "Simulator", HeapSimulator)
    heap = run_experiment(*args, **kwargs)
    return dataclasses.asdict(slots), dataclasses.asdict(heap)


class TestHeapOracleBitIdentity:
    @pytest.mark.parametrize("design", ["tdram", "cascade_lake", "alloy"])
    def test_whole_run_asdict_identical(self, design, monkeypatch):
        slots, heap = _heap_ab(monkeypatch, design, "bfs.22",
                               config=SystemConfig.small(),
                               demands_per_core=150, seed=11)
        assert slots == heap

    def test_sampled_run_asdict_identical(self, monkeypatch):
        slots, heap = _heap_ab(monkeypatch, "tdram", "bfs.22",
                               config=_sampled_config(),
                               demands_per_core=600, seed=11)
        assert slots == heap


# ---------------------------------------------------------------------------
# Window planning + estimator math
# ---------------------------------------------------------------------------
class TestPlan:
    def test_alternates_and_truncates(self):
        cfg = SamplingConfig(enabled=True, detail_demands=100,
                             fastforward_demands=400)
        assert plan(1100, cfg) == [(100, 400), (100, 400), (100, 0)]

    def test_short_quantum_is_one_truncated_window(self):
        cfg = SamplingConfig(enabled=True, detail_demands=100,
                             fastforward_demands=400)
        assert plan(60, cfg) == [(60, 0)]

    def test_every_demand_accounted_once(self):
        cfg = SamplingConfig(enabled=True, detail_demands=7,
                             fastforward_demands=13)
        windows = plan(501, cfg)
        assert sum(d + f for d, f in windows) == 501

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ConfigError):
            plan(0, SamplingConfig())


class TestEstimator:
    def test_t_critical_known_values(self):
        assert t_critical(0.95, 1) == pytest.approx(12.706)
        assert t_critical(0.95, 10) == pytest.approx(2.228)
        assert t_critical(0.99, 5) == pytest.approx(4.032)
        # beyond the table: the normal z value
        assert t_critical(0.95, 500) == pytest.approx(1.960)

    def test_t_critical_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            t_critical(0.95, 0)
        with pytest.raises(ConfigError):
            t_critical(0.42, 5)

    def test_estimate_mean_and_half_width(self):
        ci = estimate({"x": [10.0, 12.0, 14.0]}, 0.95)["x"]
        assert ci["mean"] == pytest.approx(12.0)
        # s = 2, n = 3: t(0.95, 2) * 2 / sqrt(3)
        assert ci["half_width"] == pytest.approx(4.303 * 2 / math.sqrt(3))
        assert ci["n"] == 3

    def test_single_window_reports_infinite_half_width(self):
        ci = estimate({"x": [5.0]}, 0.95)["x"]
        assert ci["mean"] == 5.0
        assert math.isinf(ci["half_width"])

    def test_empty_metric_omitted(self):
        assert estimate({"x": []}, 0.95) == {}


class TestSamplingConfigValidation:
    def test_rejects_nonpositive_detail(self):
        with pytest.raises(ConfigError):
            SamplingConfig(detail_demands=0)

    def test_rejects_nonpositive_fastforward(self):
        with pytest.raises(ConfigError):
            SamplingConfig(fastforward_demands=-1)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigError):
            SamplingConfig(warmup_windows=-1)

    def test_rejects_unknown_confidence(self):
        with pytest.raises(ConfigError):
            SamplingConfig(confidence=0.8)


# ---------------------------------------------------------------------------
# Functional fast-forward: architectural warming without timing
# ---------------------------------------------------------------------------
class TestFunctionalFastforward:
    def _sink(self, design="tdram", **overrides):
        config = SystemConfig.small().with_(**overrides)
        sim = Simulator()
        backend = build_backend(
            sim, config,
            meter=EnergyMeter(config.energy_model, config.mm_channels, False))
        return sim, DESIGNS[design](sim, config, backend), config

    def test_warms_tags_without_time_or_metrics(self):
        sim, sink, config = self._sink()
        spec = workload("bfs.22")
        streams = [demand_stream(spec, config, i, config.cores, seed=3)
                   for i in range(config.cores)]
        consumed = functional_fastforward(sink, streams, 200)
        assert consumed == 200 * config.cores
        assert sim.now == 0
        assert sink.metrics.demands == 0
        # the tag store did absorb the stream's working set
        assert sink.tags.resident_blocks() > 0

    def test_no_cache_sink_just_consumes(self):
        sim, sink, config = self._sink(design="no_cache")
        spec = workload("bfs.22")
        streams = [demand_stream(spec, config, i, config.cores, seed=3)
                   for i in range(config.cores)]
        assert functional_fastforward(sink, streams, 50) == 50 * config.cores
        assert sim.now == 0

    def test_short_stream_runs_dry_gracefully(self):
        _sim, sink, _config = self._sink()
        stream = iter([])
        assert functional_fastforward(sink, [stream], 10) == 0


# ---------------------------------------------------------------------------
# Sampled runs: payload shape + accuracy against exact same-seed runs
# ---------------------------------------------------------------------------
class TestSampledRuns:
    def test_exact_run_has_empty_sampling_payload(self):
        result = run_experiment("tdram", "bfs.22",
                                config=SystemConfig.small(),
                                demands_per_core=120, seed=11)
        assert result.sampling == {}

    def test_sampled_payload_shape(self):
        result = run_experiment("tdram", "bfs.22", config=_sampled_config(),
                                demands_per_core=1200, seed=11)
        payload = result.sampling
        assert payload["windows"] >= 2
        assert payload["confidence"] == 0.95
        assert 0.0 < payload["coverage"] <= 1.0
        assert payload["extrapolation"] >= 1.0
        assert (payload["measured_demands"] + payload["fastforwarded_demands"]
                > payload["measured_demands"])
        for name in ("miss_ratio", "read_latency_ns", "tag_check_ns",
                     "demand_period_ps"):
            ci = payload["ci"][name]
            assert ci["n"] == payload["windows"]
            assert ci["half_width"] >= 0.0

    def test_warmup_consuming_every_window_rejected(self):
        config = _sampled_config(warmup_windows=10)
        with pytest.raises(ConfigError):
            run_experiment("tdram", "bfs.22", config=config,
                           demands_per_core=400, seed=11)

    @pytest.mark.parametrize("workload_name", ["lu.C", "bfs.22", "pr.25"])
    def test_estimates_within_ci_of_exact(self, workload_name):
        """Acceptance: on figure workloads where sampling is sound, the
        sampled estimate of each tracked metric falls within its own
        reported CI of the exact same-seed value."""
        exact = run_experiment("tdram", workload_name,
                               config=SystemConfig.small(),
                               demands_per_core=2400, seed=11)
        sampled = run_experiment("tdram", workload_name,
                                 config=_sampled_config(),
                                 demands_per_core=2400, seed=11)
        ci = sampled.sampling["ci"]
        for name, reference in [("miss_ratio", exact.miss_ratio),
                                ("read_latency_ns", exact.read_latency_ns)]:
            mean = ci[name]["mean"]
            # the CI half-width plus a hair of slack for zero-variance
            # windows (e.g. a fully-resident workload's 0.0 miss ratio)
            tolerance = ci[name]["half_width"] + 0.02 * max(1.0, reference)
            assert abs(mean - reference) <= tolerance, (
                f"{workload_name}/{name}: sampled {mean} vs exact "
                f"{reference} outside ±{tolerance}")


# ---------------------------------------------------------------------------
# Cache soundness: every speed knob is a key ingredient
# ---------------------------------------------------------------------------
class TestCacheKeySoundness:
    def _key(self, config):
        return cache_key("tdram", workload("bfs.22"), config, 600, 7)

    @pytest.mark.parametrize("override", [
        dict(enabled=True),
        dict(enabled=True, detail_demands=50),
        dict(enabled=True, fastforward_demands=800),
        dict(enabled=True, warmup_windows=2),
        dict(enabled=True, confidence=0.99),
    ])
    def test_every_sampling_knob_changes_key(self, override):
        base = SystemConfig.small()
        keyed = base.with_(sampling=SamplingConfig(**override))
        assert self._key(base) != self._key(keyed)
        # and the knobs are distinguished from each other, not just
        # from the exact baseline
        enabled_only = base.with_(sampling=SamplingConfig(enabled=True))
        if override != dict(enabled=True):
            assert self._key(keyed) != self._key(enabled_only)

    def test_sampled_result_never_served_for_exact_request(self, tmp_path):
        """Store a sampled result under its own key; an exact request's
        key must miss the cache entirely."""
        cache = ResultCache(tmp_path / "cache")
        sampled_cfg = _sampled_config()
        sampled = run_experiment("tdram", "bfs.22", config=sampled_cfg,
                                 demands_per_core=600, seed=11)
        sampled_key = cache_key("tdram", workload("bfs.22"), sampled_cfg,
                                600, 11)
        cache.put(sampled_key, sampled)
        exact_key = cache_key("tdram", workload("bfs.22"),
                              SystemConfig.small(), 600, 11)
        assert exact_key != sampled_key
        assert cache.get(exact_key) is None
        restored = cache.get(sampled_key)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(sampled)
