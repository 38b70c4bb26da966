"""Tests for the RAS subsystem: injection, ECC recovery, scrubbing,
degradation, and the fault-campaign CLI (see docs/ras.md)."""

import pytest

from repro.cache.controller import CacheOp, OpKind
from repro.cache.ideal import IdealCache
from repro.cache.request import DemandRequest, Op, Outcome
from repro.cache.tagstore import TagStore
from repro.cache.tdram import TdramCache
from repro.config.system import MIB, SystemConfig
from repro.core.ecc import EccOutcome
from repro.core.flush_buffer import FlushBuffer
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import (
    CapacityError,
    ConfigError,
    RasError,
    RetryExhaustedError,
)
from repro.experiments.cli import main
from repro.experiments.runner import run_experiment
from repro.ras.config import RasConfig
from repro.ras.degrade import DegradationManager, effective_capacity_fraction
from repro.ras.tag_ecc import TagEccEngine
from repro.sim.kernel import ns
from repro.stats.counters import RasCounters
from repro.stats.report import ras_report

#: A campaign skeleton with every fault source silenced: the ECC path,
#: scrubber, and degradation machinery are live, but nothing flips bits
#: unless the test does it by hand.
QUIET_RAS = RasConfig(enabled=True, tag_fault_rate=0.0, hm_fault_rate=0.0,
                      flush_fault_rate=0.0)


def _campaign_config(seed: int, mode: str, rate: float = 1.0) -> SystemConfig:
    return SystemConfig(
        cache_capacity_bytes=4 * MIB,
        mm_capacity_bytes=64 * MIB,
        cache_ways=4,
        ras=RasConfig.campaign(seed, mode, rate),
    )


class TestRasConfig:
    def test_defaults_are_quiet(self):
        config = RasConfig()
        assert not config.enabled
        assert config.tag_fault_rate == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            RasConfig(mode="burst")

    @pytest.mark.parametrize("field,value", [
        ("tag_fault_rate", 1.5),
        ("hm_fault_rate", -0.1),
        ("inject_interval_ns", 0.0),
        ("retry_limit", 0),
        ("burst_length", 0),
        ("scrub_lines_per_pass", 0),
        ("way_fault_threshold", 0),
        ("bank_rate_multipliers", (1.0, -2.0)),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RasConfig(**{field: value})

    def test_campaign_modes(self):
        single = RasConfig.campaign(3, "single")
        double = RasConfig.campaign(3, "double")
        assert single.enabled and single.mode == "single"
        assert single.transient_fraction == 0.0
        # double campaigns lower the fuse-off thresholds so degradation
        # is observable in a short run
        assert double.way_fault_threshold < single.way_fault_threshold
        assert double.bank_fault_threshold < single.bank_fault_threshold

    def test_with_updates_functionally(self):
        config = RasConfig().with_(enabled=True, seed=9)
        assert config.enabled and config.seed == 9
        assert not RasConfig().enabled

    def test_default_scrub_batch_fits_a_refresh_window(self):
        """One default scrub batch of tag-mat reads (16 x tRC_TAG =
        192 ns) fits an all-bank refresh (tRFC = 195 ns), when the tag
        banks are idle anyway. ``RasConfig.campaign`` overruns it on
        purpose and is not covered here."""
        batch = (RasConfig().scrub_lines_per_pass
                 * rldram_like_tag_timing().tRC_TAG)
        assert batch <= hbm3_cache_timing().tRFC


class TestTagEccEngine:
    def test_line_word_layout(self):
        engine = TagEccEngine(num_sets=64)
        word = engine.line_word(block=64 * 5 + 3, dirty=True)
        assert word == (5 << 2) | 0b11        # tag | valid | dirty
        assert engine.line_word(3, dirty=False) & 0b11 == 0b10

    def test_roundtrip_and_memoisation(self):
        engine = TagEccEngine(num_sets=64)
        codeword = engine.encode_line(block=1234, dirty=False)
        assert engine.encode_line(1234, False) == codeword
        result = engine.decode(codeword)
        assert result.outcome is EccOutcome.CLEAN
        assert result.data == engine.line_word(1234, False)
        assert engine.is_clean(codeword)

    def test_single_flip_corrects_to_same_word(self):
        engine = TagEccEngine(num_sets=64)
        codeword = engine.encode_line(block=77, dirty=True)
        for bit in range(engine.code.codeword_bits):
            result = engine.decode(codeword ^ (1 << bit))
            assert result.outcome is EccOutcome.CORRECTED
            assert result.data == engine.line_word(77, True)


class TestEffectiveCapacity:
    def test_values(self):
        assert effective_capacity_fraction(4, 0) == 1.0
        assert effective_capacity_fraction(4, 1) == 0.75
        assert effective_capacity_fraction(2, 1) == 0.5

    @pytest.mark.parametrize("ways,disabled", [(4, 4), (1, 1), (0, 0),
                                               (4, -1)])
    def test_invalid_rejected(self, ways, disabled):
        with pytest.raises(RasError):
            effective_capacity_fraction(ways, disabled)


def _make_degrade(way_threshold=2, bank_threshold=3, banks=2):
    tags = TagStore(num_frames=16, ways=4)
    counters = RasCounters()
    writebacks = []
    manager = DegradationManager(
        tags, counters, route=lambda b: (0, b % banks),
        way_fault_threshold=way_threshold,
        bank_fault_threshold=bank_threshold,
        writeback=writebacks.append, total_banks=banks,
    )
    return tags, counters, writebacks, manager


class TestDegradationManager:
    def test_spread_faults_disable_a_way(self):
        tags, counters, _wb, manager = _make_degrade()
        manager.record_uncorrectable(0)   # bank 0
        assert tags.available_ways == 4
        manager.record_uncorrectable(1)   # bank 1 -> store-wide threshold
        assert tags.available_ways == 3
        assert counters["degraded_ways"] == 1
        assert manager.capacity_fraction() == pytest.approx(0.75)

    def test_concentrated_faults_fuse_off_the_bank(self):
        tags, counters, _wb, manager = _make_degrade(way_threshold=100,
                                                     bank_threshold=3)
        for block in (0, 2, 4):           # all route to bank 0
            manager.record_uncorrectable(block)
        assert manager.dead_banks == {(0, 0)}
        assert counters["degraded_banks"] == 1
        assert manager.block_disabled(6)          # 6 % 2 == 0
        assert not manager.block_disabled(7)
        assert manager.capacity_fraction() == pytest.approx(0.5)

    def test_dirty_evictions_are_written_back(self):
        tags, counters, writebacks, manager = _make_degrade(bank_threshold=1)
        tags.install(0, dirty=True)
        tags.install(2, dirty=False)              # same bank, clean
        manager.record_uncorrectable(0)
        assert (0, 0) in manager.dead_banks
        assert writebacks == [0]
        assert counters["degraded_evictions"] == 2
        assert counters["degraded_writebacks"] == 1

    def test_surviving_way_model_adds_no_latency(self):
        tags, _c, _wb, manager = _make_degrade()
        manager.record_uncorrectable(0)
        manager.record_uncorrectable(1)
        assert manager.surviving_way_model().total_latency_overhead == 0


class TestTagStoreDegradationSupport:
    def test_disable_way_shrinks_full_sets(self):
        tags = TagStore(num_frames=8, ways=4)   # 2 sets
        for i in range(4):
            tags.install(2 * i, dirty=(i == 0))  # all land in set 0
        evicted = tags.disable_way()
        assert tags.available_ways == 3
        assert evicted == [(0, True)]            # LRU way drained
        assert tags.resident_blocks() == 3

    def test_last_way_is_never_disabled(self):
        tags = TagStore(num_frames=4, ways=1)
        with pytest.raises(RasError):
            tags.disable_way()

    def test_evict_matching(self):
        tags = TagStore(num_frames=8, ways=4)
        for block in range(4):
            tags.install(block, dirty=False)
        evicted = tags.evict_matching(lambda b: b % 2 == 0)
        assert sorted(b for b, _d in evicted) == [0, 2]
        assert tags.contains(1) and not tags.contains(2)


def _tdram_with_ras(make_system, **ras_overrides):
    ras = QUIET_RAS.with_(**ras_overrides) if ras_overrides else QUIET_RAS
    system = make_system(TdramCache, cache_ways=2, ras=ras)
    return system, system.cache.ras, system.cache.tags


class TestEccTagPath:
    """Unit-level recovery semantics through TagStore + RasManager."""

    def _line(self, tags, block):
        line = tags._locate(block)[2]
        assert line is not None
        return line

    def test_clean_read_costs_nothing(self, make_system):
        _sys, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        result = tags.probe(10)
        assert result.outcome is Outcome.HIT_CLEAN
        assert result.ecc_penalty_ps == 0
        assert ras.counters["tag_reads_checked"] == 1

    def test_single_bit_error_corrected_with_penalty(self, make_system):
        _sys, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        line = self._line(tags, 10)
        line.codeword ^= 1 << 5
        result = tags.probe(10)
        assert result.outcome is Outcome.HIT_CLEAN
        assert result.ecc_penalty_ps == ns(ras.config.corrected_penalty_ns)
        assert ras.counters["tag_corrected"] == 1
        # demand corrections do not repair the stored word (patrol
        # scrubbing's job), so the latent fault is still there
        assert not ras.engine.is_clean(line.codeword)

    def test_transient_double_recovers_via_retry(self, make_system):
        _sys, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        line = self._line(tags, 10)
        line.soft = 0b11                 # read-disturb: two flipped bits
        result = tags.probe(10)
        assert result.outcome is Outcome.HIT_CLEAN
        assert result.ecc_penalty_ps >= ns(ras.config.retry_penalty_ns)
        assert ras.counters["tag_detected"] == 1
        assert ras.counters["tag_retry_success"] == 1
        assert ras.counters["tag_uncorrectable"] == 0
        assert line.soft == 0            # sampled exactly once

    def test_persistent_double_on_clean_line_degrades_to_miss(
            self, make_system):
        _sys, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        self._line(tags, 10).codeword ^= 0b101
        result = tags.probe(10)
        assert result.outcome is Outcome.MISS_INVALID   # refetch path
        assert not tags.contains(10)
        assert ras.counters["tag_retries"] == ras.config.retry_limit
        assert ras.counters["tag_retry_exhausted"] == 1
        assert ras.counters["tag_uncorrectable"] == 1
        assert ras.counters["tag_clean_refetch"] == 1
        assert ras.counters["tag_data_loss"] == 0

    def test_persistent_double_on_dirty_line_counts_data_loss(
            self, make_system):
        _sys, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=True)
        self._line(tags, 10).codeword ^= 0b101
        result = tags.probe(10)
        assert result.outcome is Outcome.MISS_INVALID
        assert ras.counters["tag_data_loss"] == 1
        assert ras.counters.data_loss == 1

    def test_strict_mode_raises_instead_of_degrading(self, make_system):
        _sys, _ras, tags = _tdram_with_ras(make_system, strict=True)
        tags.install(10, dirty=True)
        self._line(tags, 10).codeword ^= 0b101
        with pytest.raises(RetryExhaustedError):
            tags.probe(10)

    def test_rewrite_stores_fresh_codeword(self, make_system):
        _sys, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        line = self._line(tags, 10)
        line.codeword ^= 0b101           # latent uncorrectable fault
        tags.install(10, dirty=True)     # write hit rewrites the word
        assert ras.engine.is_clean(line.codeword)
        assert ras.counters["tag_rewrite_cleared"] == 1
        assert tags.probe(10).outcome is Outcome.HIT_DIRTY

    def test_hm_packet_fault_costs_one_retry(self, make_system):
        _sys, ras, _tags = _tdram_with_ras(make_system)
        assert ras.hm_result_read() == 0
        ras.arm_hm_fault()
        assert ras.hm_result_read() == ns(ras.config.hm_retry_penalty_ns)
        assert ras.hm_result_read() == 0
        assert ras.counters["hm_packet_errors"] == 1

    def test_demand_reads_complete_end_to_end(self, make_system):
        system, ras, tags = _tdram_with_ras(make_system)
        tags.install(8, dirty=False)
        self._line(tags, 8).codeword ^= 1 << 3      # correctable
        tags.install(16, dirty=False)
        self._line(tags, 16).codeword ^= 0b101      # uncorrectable
        system.read(8)
        system.read(16)
        system.run(4000)
        assert len(system.completed) == 2           # both served, no crash
        assert ras.counters["tag_corrected"] >= 1
        assert ras.counters["tag_uncorrectable"] == 1


class TestPatrolScrubber:
    def test_latent_single_bit_repaired(self, make_system):
        system, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        line = tags._locate(10)[2]
        line.codeword ^= 1 << 7
        system.run(4000)                 # > scrub_interval_ns (1950)
        assert ras.counters["scrub_repaired"] == 1
        assert ras.engine.is_clean(line.codeword)

    def test_uncorrectable_line_dropped_and_counted(self, make_system):
        system, ras, tags = _tdram_with_ras(make_system)
        tags.install(10, dirty=False)
        tags._locate(10)[2].codeword ^= 0b101
        system.run(4000)
        assert ras.counters["scrub_uncorrectable"] == 1
        assert not tags.contains(10)


class TestFlushBufferFaults:
    def _buffer(self):
        flush = FlushBuffer(4)
        flush.ras_counters = RasCounters()
        return flush

    def test_single_bit_mark_corrected_on_unload(self):
        flush = self._buffer()
        flush.add(8)
        flush.inject_fault(0, bits=1)
        assert flush.pop() == 8
        assert flush.ras_counters["flush_corrected"] == 1
        assert flush.events["ecc_corrected"] == 1

    def test_double_bit_mark_drops_the_writeback(self):
        flush = self._buffer()
        flush.add(8)
        flush.add(16)
        flush.inject_fault(0, bits=2)
        assert flush.pop() == 16          # corrupt entry skipped
        assert flush.pop() is None
        assert flush.ras_counters["flush_uncorrectable"] == 1
        assert flush.ras_counters["flush_data_loss"] == 1
        assert flush.events["ecc_dropped"] == 1

    def test_superseding_write_clears_the_mark(self):
        flush = self._buffer()
        flush.add(8)
        flush.inject_fault(0, bits=2)
        flush.remove(8)                   # newer write supersedes
        flush.add(8)                      # re-buffered fresh
        assert flush.pop() == 8
        assert flush.ras_counters["flush_data_loss"] == 0


class TestWriteBackpressure:
    def test_unforced_overflow_is_counted_and_raised(self, make_system):
        system = make_system(IdealCache)
        scheduler = system.cache.schedulers[0]
        events = system.cache.metrics.events
        scheduler.write_capacity = 1
        scheduler.write_q.append(CacheOp(OpKind.DATA_WRITE, 0, 0, 0))
        with pytest.raises(CapacityError):
            scheduler.push_write(CacheOp(OpKind.DATA_WRITE, 8, 1, 0))
        assert events["write_q_rejected"] == 1
        scheduler.push_write(CacheOp(OpKind.DATA_WRITE, 8, 1, 0),
                             forced=True)
        assert events["write_q_forced_over_capacity"] == 1

    def test_tdram_absorbs_demand_overflow_gracefully(self, make_system):
        system = make_system(TdramCache)
        for scheduler in system.cache.schedulers:
            scheduler.write_capacity = 0
        request = DemandRequest(op=Op.WRITE, block_addr=24)
        system.cache._enqueue(request)    # must not raise
        events = system.cache.metrics.events
        assert events["write_backpressure_forced"] == 1
        assert events["write_q_forced_over_capacity"] == 1


class TestCampaigns:
    """End-to-end acceptance runs (the ``tdram-repro ras`` scenarios)."""

    def test_single_bit_campaign_never_loses_data(self):
        result = run_experiment("tdram", "bfs.22",
                                config=_campaign_config(11, "single"),
                                demands_per_core=200, seed=11)
        ras = result.ras
        assert ras["injected_tag"] > 0
        assert ras.get("tag_uncorrectable", 0) == 0
        assert ras.get("scrub_uncorrectable", 0) == 0
        assert ras.get("tag_data_loss", 0) == 0
        assert ras.get("flush_data_loss", 0) == 0
        # every observed fault was corrected or scrubbed
        assert ras.get("tag_corrected", 0) + ras.get("scrub_repaired", 0) > 0
        assert result.demands > 0

    def test_double_bit_campaign_degrades_but_completes(self):
        result = run_experiment("tdram", "bfs.22",
                                config=_campaign_config(11, "double"),
                                demands_per_core=200, seed=11)
        ras = result.ras
        uncorrectable = (ras.get("tag_uncorrectable", 0)
                         + ras.get("scrub_uncorrectable", 0))
        assert uncorrectable > 0
        assert ras.get("degraded_ways", 0) > 0
        assert ras["effective_ways"] < 4
        assert ras["capacity_fraction_pct"] < 100
        assert result.demands > 0

    def test_same_seed_is_bit_for_bit_reproducible(self):
        runs = [
            run_experiment("tdram", "bfs.22",
                           config=_campaign_config(11, "random"),
                           demands_per_core=150, seed=11)
            for _ in range(2)
        ]
        assert runs[0].ras == runs[1].ras
        assert runs[0].ras["injected_tag"] > 0

    def test_disabled_ras_reports_nothing(self):
        result = run_experiment(
            "tdram", "bfs.22",
            config=SystemConfig(cache_capacity_bytes=4 * MIB,
                                mm_capacity_bytes=64 * MIB),
            demands_per_core=100, seed=11)
        assert result.ras == {}


class TestReporting:
    def test_ras_report_groups_and_preserves_everything(self):
        snapshot = {"injected_tag": 3, "tag_corrected": 2,
                    "tag_data_loss": 1, "degraded_ways": 1,
                    "some_future_counter": 9}
        text = ras_report(snapshot)
        for group in ("[injected]", "[recovery]", "[damage]",
                      "[degradation]", "[other]"):
            assert group in text
        assert "some_future_counter = 9" in text

    def test_ras_report_disabled(self):
        assert "disabled" in ras_report({})

    def test_counter_rollups(self):
        counters = RasCounters()
        counters.add("tag_corrected", 2)
        counters.add("scrub_repaired", 3)
        counters.add("flush_uncorrectable")
        assert counters.corrected == 5
        assert counters.uncorrectable == 1
        assert counters.data_loss == 0


class TestCli:
    def test_ras_target_smoke(self, capsys):
        assert main(["ras", "--demands", "60", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "campaign=single" in out

    def test_ras_target_rejects_extra_args(self, capsys):
        assert main(["ras", "tdram", "bfs.22", "extra"]) == 2

    def test_ras_listed(self, capsys):
        assert main(["list"]) == 0
        assert "ras" in capsys.readouterr().out
