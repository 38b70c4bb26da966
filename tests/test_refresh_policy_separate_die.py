"""Tests for the per-bank refresh option."""

import pytest

from repro.config.system import MIB, SystemConfig
from repro.dram.device import DramChannel
from repro.dram.timing import hbm3_cache_timing
from repro.errors import ProtocolError
from repro.experiments.runner import run_experiment
from repro.sim.kernel import Simulator


class TestPerBankRefresh:
    def test_all_bank_blocks_everything(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r0",
                              refresh_policy="all_bank")
        sim.run(until=timing.tREFI + 1)
        assert all(b.ready_at == timing.tREFI + timing.tRFC
                   for b in channel.banks)

    def test_per_bank_blocks_one_bank_at_a_time(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r1",
                              refresh_policy="per_bank")
        sim.run(until=timing.tREFI // 16 + 1)
        blocked = [b.index for b in channel.banks if b.ready_at > 0]
        assert len(blocked) == 1

    def test_per_bank_rotates_through_banks(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r2",
                              refresh_policy="per_bank")
        sim.run(until=timing.tREFI + 1)  # 16 per-bank ticks
        assert channel.refreshes >= 16
        assert all(b.ready_at > 0 for b in channel.banks)

    def test_per_bank_never_fires_channel_wide_listeners(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r3",
                              refresh_policy="per_bank")
        windows = []
        channel.refresh_listeners.append(lambda s, e: windows.append((s, e)))
        sim.run(until=2 * timing.tREFI)
        assert windows == []

    def test_bad_policy_rejected(self):
        with pytest.raises(ProtocolError):
            DramChannel(Simulator(), hbm3_cache_timing(), 16, "x",
                        refresh_policy="sometimes")

    def test_tdram_runs_under_per_bank_refresh(self):
        """End-to-end: flush unloads fall back to read-miss-clean slots
        and forced drains when no refresh windows exist."""
        config = SystemConfig(cache_capacity_bytes=4 * MIB,
                              mm_capacity_bytes=64 * MIB, cores=4,
                              cache_refresh_policy="per_bank")
        result = run_experiment("tdram", "is.D", config,
                                demands_per_core=250, seed=5)
        assert result.runtime_ps > 0
        assert result.flush_unloads.get("unload_refresh", 0) == 0

