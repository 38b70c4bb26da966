"""Tests for the set-associative way-selection models (§V-F)."""

import pytest

from repro.core.ways import (
    controller_way_select,
    in_dram_way_select,
    way_select_comparison,
)
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import ConfigError
from repro.sim.kernel import ns

TIMING = hbm3_cache_timing()
TAG = rldram_like_tag_timing()


class TestInDram:
    def test_zero_latency_overhead_at_any_associativity(self):
        """§V-F: parallel per-way comparators keep the direct-mapped
        timing regardless of associativity."""
        for ways in (1, 2, 3, 4, 8, 16):
            model = in_dram_way_select(ways)
            assert model.total_latency_overhead == 0
            assert model.extra_hm_time == 0

    def test_energy_scales_with_comparators(self):
        assert in_dram_way_select(1).extra_energy_pj == 0
        assert in_dram_way_select(8).extra_energy_pj > \
            in_dram_way_select(2).extra_energy_pj

    def test_invalid_ways_rejected(self):
        with pytest.raises(ConfigError):
            in_dram_way_select(0)


class TestControllerSide:
    def test_direct_mapped_controller_check_still_pays_round_trip(self):
        model = controller_way_select(1, TIMING, TAG)
        # Even one way pays the HM round trip vs internal gating.
        assert model.extra_data_delay > 0
        assert model.extra_hm_time == 0

    def test_latency_grows_with_ways(self):
        delays = [controller_way_select(w, TIMING, TAG).total_latency_overhead
                  for w in (1, 2, 4, 8, 16)]
        assert delays == sorted(delays)
        assert delays[-1] > delays[0]

    def test_sixteen_ways_costs_many_hm_packets(self):
        model = controller_way_select(16, TIMING, TAG)
        assert model.extra_hm_time == 15 * ns(0.75)

    def test_energy_grows_with_tag_traffic(self):
        assert controller_way_select(8, TIMING, TAG).extra_energy_pj > \
            controller_way_select(2, TIMING, TAG).extra_energy_pj

    def test_invalid_ways_rejected(self):
        with pytest.raises(ConfigError):
            controller_way_select(0, TIMING, TAG)


class TestComparison:
    def test_in_dram_strictly_better_beyond_one_way(self):
        rows = way_select_comparison(TIMING, TAG)
        for row in rows:
            assert row["in_dram_latency_ns"] <= row["controller_latency_ns"]
            if row["ways"] > 1:
                assert row["in_dram_latency_ns"] < row["controller_latency_ns"]

    def test_rows_cover_requested_ways(self):
        rows = way_select_comparison(TIMING, TAG, ways_list=(2, 4))
        assert [r["ways"] for r in rows] == [2, 4]
