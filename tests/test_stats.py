"""Unit tests for counters, latency stats, the bandwidth ledger, and the
confidence-interval estimator."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cache.metrics import BREAKDOWN_CATEGORIES, CacheMetrics
from repro.cache.request import Op, Outcome
from repro.errors import ConfigError
from repro.stats.bandwidth import BandwidthLedger
from repro.stats.counters import CounterSet, LatencyStat, OccupancyStat
from repro.stats.estimator import estimate, t_critical


class TestCounterSet:
    def test_add_and_read(self):
        c = CounterSet()
        c.add("x")
        c.add("x", 4)
        assert c["x"] == 5
        assert c["missing"] == 0

    def test_total_and_reset(self):
        c = CounterSet()
        c.add("a", 2)
        c.add("b", 3)
        assert c.total(["a", "b", "zzz"]) == 5
        c.reset()
        assert c["a"] == 0

    def test_as_dict_copies(self):
        c = CounterSet()
        c.add("a")
        d = c.as_dict()
        d["a"] = 99
        assert c["a"] == 1


class TestLatencyStat:
    def test_mean_and_count(self):
        stat = LatencyStat("x")
        for value in (1000, 2000, 3000):
            stat.record(value)
        assert stat.mean_ns == 2.0
        assert stat.count == 3

    def test_empty_stat_reports_zero(self):
        assert LatencyStat("x").mean_ns == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStat("x").record(-1)

    def test_reset(self):
        stat = LatencyStat("x")
        stat.record(5000)
        stat.reset()
        assert stat.count == 0 and stat.mean_ns == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
    def test_property_mean_bounded_by_extremes(self, values):
        stat = LatencyStat("p")
        for value in values:
            stat.record(value)
        assert min(values) / 1000.0 <= stat.mean_ns <= max(values) / 1000.0


class TestOccupancyStat:
    def test_mean_and_max(self):
        stat = OccupancyStat("q")
        for level in (0, 5, 10):
            stat.sample(level)
        assert stat.mean_level == 5.0
        assert stat.max_level == 10


class TestBandwidthLedger:
    def test_bloat_factor_definition(self):
        ledger = BandwidthLedger()
        ledger.move("hit_data", 64, useful=True)
        ledger.move("tag_check_discard", 64, useful=False)
        assert ledger.total_bytes == 128
        assert ledger.bloat_factor == 2.0
        assert ledger.unuseful_fraction == 0.5

    def test_empty_ledger_has_bloat_one(self):
        assert BandwidthLedger().bloat_factor == 1.0
        assert BandwidthLedger().unuseful_fraction == 0.0

    def test_move_split_tracks_overhead(self):
        ledger = BandwidthLedger()
        ledger.move_split("demand_write", 64, 16)  # Alloy 80 B burst
        assert ledger.useful_bytes == 64
        assert ledger.unuseful_bytes == 16
        assert ledger.by_category()["demand_write_overhead"] == 16

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            BandwidthLedger().move("x", -1, useful=True)

    def test_reset(self):
        ledger = BandwidthLedger()
        ledger.move("a", 64, useful=True)
        ledger.reset()
        assert ledger.total_bytes == 0


class TestCacheMetrics:
    @pytest.mark.parametrize("op,outcome,expected", [
        (Op.READ, Outcome.HIT_CLEAN, "read_hit"),
        (Op.READ, Outcome.HIT_DIRTY, "read_hit"),
        (Op.READ, Outcome.MISS_INVALID, "read_miss_clean"),
        (Op.READ, Outcome.MISS_CLEAN, "read_miss_clean"),
        (Op.READ, Outcome.MISS_DIRTY, "read_miss_dirty"),
        (Op.WRITE, Outcome.HIT_CLEAN, "write_hit"),
        (Op.WRITE, Outcome.MISS_CLEAN, "write_miss_clean"),
        (Op.WRITE, Outcome.MISS_DIRTY, "write_miss_dirty"),
    ])
    def test_breakdown_category(self, op, outcome, expected):
        category = (outcome.read_category if op is Op.READ
                    else outcome.write_category)
        assert category == expected
        metrics = CacheMetrics()
        metrics.record_outcome(op, outcome)
        assert metrics.outcomes.as_dict() == {expected: 1}

    def test_outcomes_carry_exactly_the_breakdown_labels(self):
        labels = {label for outcome in Outcome
                  for label in (outcome.read_category, outcome.write_category)}
        assert labels == set(BREAKDOWN_CATEGORIES)

    def test_breakdown_fractions_sum_to_one(self):
        metrics = CacheMetrics()
        metrics.record_outcome(Op.READ, Outcome.HIT_CLEAN)
        metrics.record_outcome(Op.READ, Outcome.MISS_CLEAN)
        metrics.record_outcome(Op.WRITE, Outcome.MISS_DIRTY)
        metrics.record_outcome(Op.WRITE, Outcome.HIT_DIRTY)
        assert abs(sum(metrics.breakdown().values()) - 1.0) < 1e-9
        assert set(metrics.breakdown()) == set(BREAKDOWN_CATEGORIES)

    def test_miss_ratios(self):
        metrics = CacheMetrics()
        metrics.record_outcome(Op.READ, Outcome.HIT_CLEAN)
        metrics.record_outcome(Op.READ, Outcome.MISS_CLEAN)
        metrics.record_outcome(Op.WRITE, Outcome.MISS_CLEAN)
        assert metrics.miss_ratio == pytest.approx(2 / 3)
        assert metrics.read_miss_ratio == pytest.approx(1 / 2)

    def test_reset_clears_everything(self):
        metrics = CacheMetrics()
        metrics.record_outcome(Op.READ, Outcome.HIT_CLEAN)
        metrics.tag_check.record(1000)
        metrics.ledger.move("x", 64, useful=True)
        metrics.reset()
        assert metrics.demands == 0
        assert metrics.tag_check.count == 0
        assert metrics.ledger.total_bytes == 0

    def test_empty_region_breakdown_is_all_zeros(self):
        metrics = CacheMetrics()
        assert metrics.demands == 0
        assert metrics.miss_ratio == 0.0
        breakdown = metrics.breakdown()
        assert set(breakdown) == set(BREAKDOWN_CATEGORIES)
        assert all(value == 0.0 for value in breakdown.values())


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
