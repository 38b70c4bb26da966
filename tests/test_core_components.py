"""Unit tests for TDRAM's device internals: flush buffer, HM-bus
packet arithmetic, command walks, tag mats, and area/signal
overheads."""

import pytest
from hypothesis import given, strategies as st

from repro.core.area import (
    HBM3_TOTAL_SIGNALS,
    die_area_report,
    signal_report,
    tag_area_overhead,
)
from repro.core.commands import (
    hm_precedes_data_by,
    walk_probe,
    walk_read,
    walk_write,
)
from repro.core.flush_buffer import FlushBuffer
from repro.core.hm_bus import packet_beats, tag_bits_for
from repro.core.tag_mats import (
    flush_move_safe,
    internal_result_hidden,
    layout_for,
    tag_check_speed_ratio,
)
from repro.dram.address import DramGeometry
from repro.dram.device import HM_PACKET_TIME
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import ConfigError
from repro.sim.kernel import ns


class TestFlushBuffer:
    def test_fifo_semantics(self):
        fb = FlushBuffer(4)
        for block in (1, 2, 3):
            assert fb.add(block)
        assert fb.pop() == 1
        assert fb.pop() == 2
        assert len(fb) == 1

    def test_full_buffer_stalls(self):
        fb = FlushBuffer(2)
        assert fb.add(1) and fb.add(2)
        assert fb.is_full
        assert not fb.add(3)
        assert fb.stalls == 1
        assert len(fb) == 2

    def test_remove_superseded_entry(self):
        """§III-D2: a newer write to a buffered address drops the entry."""
        fb = FlushBuffer(4)
        fb.add(7)
        assert fb.remove(7)
        assert not fb.remove(7)
        assert fb.events["superseded"] == 1

    def test_contains(self):
        fb = FlushBuffer(4)
        fb.add(9)
        assert fb.contains(9)
        assert not fb.contains(10)

    def test_pop_empty_returns_none(self):
        assert FlushBuffer(4).pop() is None

    def test_occupancy_sampled_on_add(self):
        fb = FlushBuffer(8)
        for block in range(5):
            fb.add(block)
        assert fb.occupancy.max_level == 4  # sampled before each insert

    def test_unload_reasons_counted(self):
        fb = FlushBuffer(4)
        fb.note_unload("refresh")
        fb.note_unload("read_miss_clean")
        fb.note_unload("read_miss_clean")
        assert fb.events["unload_refresh"] == 1
        assert fb.events["unload_read_miss_clean"] == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            FlushBuffer(0)

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=60))
    def test_property_never_exceeds_capacity(self, blocks):
        fb = FlushBuffer(16)
        for block in blocks:
            fb.add(block)
            assert len(fb) <= 16


class TestHmPackets:
    def test_paper_tag_width_example(self):
        """§III-C3: 1 PB space on a 64 GiB direct-mapped cache -> 14 bits."""
        assert tag_bits_for(2 ** 50, 64 * 2 ** 30) == 14

    def test_tag_bits_zero_when_cache_covers_space(self):
        assert tag_bits_for(2 ** 20, 2 ** 20) == 0

    def test_packet_beats_matches_paper(self):
        """§III-B: 3 B of metadata take 6 beats on the 4-bit HM bus,
        0.75 ns at 8 Gb/s."""
        assert packet_beats() == 6
        assert HM_PACKET_TIME == ns(0.75)

    def test_packet_beats_validation(self):
        with pytest.raises(ConfigError):
            packet_beats(0)


class TestCommandWalks:
    def test_read_hit_walk_has_data_burst(self):
        events = walk_read(hbm3_cache_timing(), rldram_like_tag_timing(), hit=True)
        labels = [e.label for e in events]
        assert "data burst starts (DQ)" in labels
        times = [e.time_ps for e in events]
        assert times == sorted(times)

    def test_read_miss_walk_gates_column_decode(self):
        events = walk_read(hbm3_cache_timing(), rldram_like_tag_timing(), hit=False)
        labels = [e.label for e in events]
        assert "column decode gated off (no DQ data)" in labels
        assert not any("data burst" in label for label in labels)

    def test_hm_reaches_controller_before_data(self):
        """Fig. 5's central property: the conditional response window."""
        timing, tag = hbm3_cache_timing(), rldram_like_tag_timing()
        assert hm_precedes_data_by(timing, tag) == ns(15)
        events = {e.label: e.time_ps for e in walk_read(timing, tag, hit=True)}
        assert events["HM result at controller"] < events["data burst starts (DQ)"]

    def test_write_miss_dirty_walk_includes_internal_read(self):
        events = walk_write(hbm3_cache_timing(), rldram_like_tag_timing(),
                            miss_dirty=True)
        labels = [e.label for e in events]
        assert any("flush buffer" in label for label in labels)

    def test_write_hit_walk_has_no_internal_read(self):
        events = walk_write(hbm3_cache_timing(), rldram_like_tag_timing(),
                            miss_dirty=False)
        assert not any("flush buffer" in e.label for e in events)

    def test_probe_walk_cycles_tag_bank(self):
        events = walk_probe(rldram_like_tag_timing())
        assert events[-1].time_ps == ns(12)  # tRC_TAG
        assert events[-1].time_ns == 12.0


class TestTagMats:
    GEO = DramGeometry(channels=8, banks_per_channel=16, rows_per_bank=64,
                       columns_per_row=32)

    def test_storage_overhead_is_3_over_64(self):
        layout = layout_for(self.GEO)
        assert layout.storage_overhead == pytest.approx(3 / 64)
        assert layout.tag_bytes == layout.data_blocks * 3

    def test_tags_only_in_even_banks(self):
        layout = layout_for(self.GEO)
        assert layout.tag_banks == (8 * 16) // 2

    def test_four_tag_mats_per_data_mat(self):
        layout = layout_for(self.GEO, data_mats_per_bank=16)
        assert layout.tag_mats_per_bank == 64

    def test_paper_inequalities_hold(self):
        timing, tag = hbm3_cache_timing(), rldram_like_tag_timing()
        assert internal_result_hidden(timing, tag)
        assert flush_move_safe(timing, tag)

    def test_device_level_tag_speed_ratio(self):
        """Raw device ratio: (tRCD+tCL+tBURST) / (tRCD_TAG+tHM) = 32/15."""
        ratio = tag_check_speed_ratio(hbm3_cache_timing(), rldram_like_tag_timing())
        assert ratio == pytest.approx(32 / 15)


class TestAreaAndSignals:
    def test_die_area_overhead_is_8_24_percent(self):
        report = die_area_report()
        assert report.total_die_overhead == pytest.approx(0.0824, abs=0.0005)

    def test_area_formula_components(self):
        report = die_area_report()
        expected = 0.243 * 0.5 * 0.66 + report.routing_overhead
        assert report.total_die_overhead == pytest.approx(expected)

    def test_tag_area_overhead_default(self):
        assert tag_area_overhead() == pytest.approx(0.243)

    def test_signal_overhead_matches_fig4(self):
        report = signal_report()
        assert report.extra_per_channel == 6
        assert report.extra_channel_signals == 192
        assert report.total_signals == HBM3_TOTAL_SIGNALS + 192 == 2164
        assert report.overhead_fraction == pytest.approx(0.097, abs=0.002)

    def test_new_signals_fit_unused_bumps(self):
        assert signal_report().fits_in_unused_bumps
