"""Unit and behavioural tests for the MAP-I predictor (§V-D)."""

import itertools
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

import repro.cache.request as request_module
from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.predictor import MapIPredictor
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_experiment


class TestPredictorTable:
    def test_starts_predicting_hit(self):
        predictor = MapIPredictor()
        assert predictor.predict_hit(0)

    def test_learns_misses(self):
        predictor = MapIPredictor()
        for _ in range(4):
            predictor.update(7, was_hit=False)
        assert predictor.predict_miss(7)

    def test_relearns_hits(self):
        predictor = MapIPredictor()
        for _ in range(4):
            predictor.update(7, was_hit=False)
        for _ in range(4):
            predictor.update(7, was_hit=True)
        assert predictor.predict_hit(7)

    def test_counters_saturate(self):
        predictor = MapIPredictor(counter_bits=2)
        for _ in range(100):
            predictor.update(3, was_hit=True)
        predictor.update(3, was_hit=False)
        predictor.update(3, was_hit=False)
        predictor.update(3, was_hit=False)
        assert predictor.predict_miss(3)

    def test_accuracy_tracked(self):
        predictor = MapIPredictor()
        predictor.update(1, was_hit=True)   # predicted hit: correct
        predictor.update(1, was_hit=True)   # correct again
        assert predictor.accuracy == 1.0

    def test_distinct_pcs_learn_independently(self):
        predictor = MapIPredictor()
        for _ in range(4):
            predictor.update(1, was_hit=False)
        assert predictor.predict_miss(1)
        assert predictor.predict_hit(2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MapIPredictor(table_size=100)
        with pytest.raises(ConfigError):
            MapIPredictor(counter_bits=0)

    @given(st.lists(st.tuples(st.integers(0, 2**32), st.booleans()),
                    max_size=200))
    def test_property_counters_stay_in_range(self, updates):
        predictor = MapIPredictor()
        for pc, hit in updates:
            predictor.update(pc, hit)
        assert all(0 <= v <= predictor.max_value for v in predictor._table)


class TestPredictorIntegration:
    def test_disabled_by_default(self, make_system):
        system = make_system(CascadeLakeCache)
        assert system.cache.predictor is None

    def test_predicted_miss_launches_speculative_fetch(self, make_system):
        system = make_system(CascadeLakeCache, use_predictor=True)
        predictor = system.cache.predictor
        for _ in range(4):
            predictor.update(64, was_hit=False)
        system.read(5, pc=64)
        system.run()
        assert system.cache.metrics.events["speculative_fetch"] == 1

    def test_speculation_shortens_miss_latency(self, make_system):
        def miss_latency(use_predictor):
            system = make_system(CascadeLakeCache, use_predictor=use_predictor)
            if use_predictor:
                for _ in range(4):
                    system.cache.predictor.update(64, was_hit=False)
            system.read(5, pc=64)
            system.run()
            return system.completed[0][1]

        assert miss_latency(True) < miss_latency(False)

    def test_predictor_trained_by_outcomes(self, make_system):
        system = make_system(CascadeLakeCache, use_predictor=True)
        system.read(5, pc=64)   # miss
        system.run()
        assert system.cache.predictor.stats["updates"] == 1

    def test_wrong_prediction_wastes_a_fetch(self, make_system):
        system = make_system(CascadeLakeCache, use_predictor=True)
        for _ in range(4):
            system.cache.predictor.update(64, was_hit=False)
        system.cache.tags.install(5, dirty=False)
        system.read(5, pc=64)   # actually a hit
        system.run()
        assert system.main_memory.reads_issued == 1  # the wasted fetch
        ledger = system.cache.metrics.ledger.by_category()
        assert ledger.get("mm_fetch") == 64
        # It was useless: nobody waited on it.
        assert system.cache.metrics.ledger.unuseful_bytes >= 64



class TestFetchOrderDomain:
    """Every backing-store read the cache sends is ordered by demand
    sequence number, so a run cannot depend on how many demands the
    process created before it. A speculative fetch (MAP-I) or a
    prefetch carries its triggering demand's number; ordered by arrival
    time instead, it was compared with sequence numbers in the DDR5
    scheduler, and results moved with the counter's start."""

    @pytest.mark.parametrize("design, feature", [
        ("cascade_lake", "use_predictor"),
        ("cascade_lake", "use_prefetcher"),
        ("tdram", "use_prefetcher"),
    ])
    def test_result_independent_of_demand_counter_start(
            self, design, feature, monkeypatch):
        config = SystemConfig.small().with_(**{feature: True})
        results = []
        for start in (0, 10 ** 9):
            monkeypatch.setattr(request_module, "_sequence",
                                itertools.count(start))
            results.append(asdict(run_experiment(
                design, "ft.D", config=config, demands_per_core=150,
                seed=7)))
        assert results[0] == results[1]
