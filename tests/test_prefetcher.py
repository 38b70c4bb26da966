"""Unit and integration tests for the stride prefetcher (§V-D)."""

import pytest

from repro.cache.prefetcher import StridePrefetcher
from repro.cache.tdram import TdramCache
from repro.config.system import MIB, SystemConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_experiment


class TestStrideDetection:
    def test_no_prefetch_before_confidence(self):
        pf = StridePrefetcher(degree=2)
        assert pf.observe(0, 10) == []   # first touch
        assert pf.observe(0, 11) == []   # stride learned, not yet confident
        assert pf.observe(0, 12) == [13, 14]  # confident

    def test_negative_strides_supported(self):
        pf = StridePrefetcher(degree=1)
        pf.observe(0, 100)
        pf.observe(0, 96)
        assert pf.observe(0, 92) == [88]

    def test_stride_change_resets_confidence(self):
        pf = StridePrefetcher(degree=1)
        pf.observe(0, 10)
        pf.observe(0, 11)
        pf.observe(0, 12)
        assert pf.observe(0, 50) == []   # broken stride
        assert pf.observe(0, 51) == []   # relearning
        assert pf.observe(0, 52) == [53]

    def test_random_pattern_stays_quiet(self):
        pf = StridePrefetcher(degree=4)
        for block in (3, 99, 7, 1024, 13, 512):
            assert pf.observe(0, block) == []

    def test_large_strides_ignored(self):
        pf = StridePrefetcher(degree=1, max_stride=8)
        pf.observe(0, 0)
        pf.observe(0, 1000)
        assert pf.observe(0, 2000) == []

    def test_outstanding_deduplicated(self):
        pf = StridePrefetcher(degree=2)
        pf.observe(0, 10)
        pf.observe(0, 11)
        first = pf.observe(0, 12)
        second = pf.observe(0, 13)
        assert 14 in first and 14 not in second

    def test_distinct_pcs_track_distinct_streams(self):
        pf = StridePrefetcher(degree=1)
        for block in (10, 11, 12):
            pf.observe(0, block)
        for block in (500, 510, 520):
            pf.observe(4096, block)
        assert pf.observe(0, 13)[0] == 14
        assert pf.observe(4096, 530)[0] == 540

    def test_usefulness_accounting(self):
        pf = StridePrefetcher(degree=1)
        pf.observe(0, 10)
        pf.observe(0, 11)
        pf.observe(0, 12)          # prefetches 13
        assert pf.note_demand_hit(13)
        assert not pf.note_demand_hit(13)
        assert pf.stats["useful"] == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            StridePrefetcher(table_size=100)
        with pytest.raises(ConfigError):
            StridePrefetcher(degree=0)
        with pytest.raises(ConfigError):
            StridePrefetcher(max_stride=0)


class TestControllerIntegration:
    def test_disabled_by_default(self, make_system):
        system = make_system(TdramCache)
        assert system.cache.prefetcher is None

    def test_sequential_reads_trigger_prefetch_fills(self, make_system):
        system = make_system(TdramCache, use_prefetcher=True)
        for block in range(6):
            system.read(block, pc=64)
            system.run(600)
        system.run(5000)
        assert system.cache.metrics.events["prefetch_issued"] > 0
        # Prefetched blocks were installed ahead of the demand stream.
        assert system.cache.tags.contains(6)

    def test_prefetch_hits_counted_useful(self, make_system):
        system = make_system(TdramCache, use_prefetcher=True)
        for block in range(8):
            system.read(block, pc=64)
            system.run(800)
        system.run(5000)
        assert system.cache.prefetcher.stats["useful"] > 0

    def test_end_to_end_study_runs(self):
        config = SystemConfig(cache_capacity_bytes=4 * MIB,
                              mm_capacity_bytes=64 * MIB, cores=4)
        result = run_experiment(
            "tdram", "lu.C", config.with_(use_prefetcher=True),
            demands_per_core=200, seed=5,
        )
        assert result.prefetches >= 0
        assert result.prefetch_useful <= result.prefetches
