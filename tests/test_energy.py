"""Tests for the energy model and meter."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache import DESIGNS
from repro.cache.request import Op
from repro.dram.monitor import CommandLog
from repro.energy.power_model import EnergyMeter, EnergyModel


class TestEnergyModel:
    def test_dq_energy_per_byte(self):
        model = EnergyModel(dq_pj_per_bit=6.0)
        assert model.dq_bytes_pj(64) == 64 * 8 * 6.0

    def test_data_movement_dominates_a_transfer(self):
        """The paper's premise [10]: ~62.6 % of access energy is data
        movement. One 64 B read: DQ energy vs ACT+col+cmd."""
        model = EnergyModel()
        movement = model.dq_bytes_pj(64) + model.col_op_pj
        core = model.act_data_pj + model.cmd_pj
        share = movement / (movement + core)
        assert 0.5 < share < 0.8

    def test_tag_mat_activate_cheaper_than_data(self):
        model = EnergyModel()
        assert model.act_tag_pj < model.act_data_pj / 2


class TestEnergyMeter:
    def make(self, channels=8, tags=False):
        return EnergyMeter(EnergyModel(), channels, tags)

    def test_dynamic_energy_accumulates(self):
        meter = self.make()
        meter.record("act_data")
        meter.record("col_op", 2)
        meter.add_dq_bytes(64)
        model = EnergyModel()
        expected = model.act_data_pj + 2 * model.col_op_pj + model.dq_bytes_pj(64)
        assert meter.dynamic_pj() == pytest.approx(expected)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            self.make().record("quantum_flux")

    def test_background_scales_with_channels(self):
        assert self.make(channels=8).background_w() == \
            pytest.approx(2 * self.make(channels=4).background_w())

    def test_tag_path_adds_background(self):
        plain = self.make(tags=False)
        tagged = self.make(tags=True)
        assert tagged.background_w() > plain.background_w()

    def test_total_integrates_background_over_runtime(self):
        meter = self.make()
        runtime_ps = 1_000_000  # 1 us
        expected = meter.background_w() * runtime_ps
        assert meter.total_pj(runtime_ps) == pytest.approx(expected)

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            self.make().total_pj(-1)

    def test_reset(self):
        meter = self.make()
        meter.record("cmd")
        meter.add_dq_bytes(128)
        meter.reset()
        assert meter.dynamic_pj() == 0.0

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**6))
    def test_property_energy_monotone_in_activity(self, runtime, n_bytes):
        quiet = self.make()
        busy = self.make()
        busy.add_dq_bytes(n_bytes)
        busy.record("act_data")
        assert busy.total_pj(runtime) >= quiet.total_pj(runtime)


class TestEnergyBreakdown:
    def test_breakdown_sums_to_total(self):
        meter = EnergyMeter(EnergyModel(), 8, True)
        meter.record("act_data", 5)
        meter.record("act_tag", 5)
        meter.record("col_op", 7)
        meter.add_dq_bytes(640)
        runtime = 2_000_000
        parts = meter.breakdown_pj(runtime)
        assert sum(parts.values()) == pytest.approx(meter.total_pj(runtime))

    def test_data_movement_dominates_busy_run(self):
        meter = EnergyMeter(EnergyModel(), 8, False)
        for _ in range(100):
            meter.record("act_data")
            meter.record("col_op")
            meter.add_dq_bytes(64)
        parts = meter.breakdown_pj()
        assert parts["data_movement"] > parts["act_data"]


# ---------------------------------------------------------------------------
# The meter's counts reconcile with the commands a channel observer sees
# ---------------------------------------------------------------------------
class TestCommandReconciliation:
    """Each meter count equals the commands a :class:`CommandLog` saw.

    The runs mix hits, clean and dirty misses, TDRAM's early probes and
    writebacks, so every command kind reaches the cache and DDR5
    channels.
    """

    @staticmethod
    def attach_logs(channels):
        logs = [CommandLog() for _ in channels]
        for channel, log in zip(channels, logs):
            channel.observers.append(log)
        return logs

    @staticmethod
    def observed(logs):
        seen = Counter()
        for log in logs:
            seen.update(log.counts.as_dict())
        return seen

    @pytest.mark.parametrize("design", ["tdram", "ndc", "cascade_lake"])
    def test_meter_counts_match_command_log(self, design, make_system):
        system = make_system(DESIGNS[design])
        cache_logs = self.attach_logs(system.cache.channels)
        mm_logs = self.attach_logs(system.main_memory.channels)
        tags = system.cache.tags
        for block in range(0, tags.num_frames, 3):
            tags.install(block, dirty=block % 2 == 0)
        rng = np.random.default_rng(5)
        for step in range(400):
            op = Op.WRITE if rng.random() < 0.3 else Op.READ
            block = int(rng.integers(0, 4 * tags.num_frames))
            if system.cache.can_accept(op, block):
                (system.write if op is Op.WRITE else system.read)(block)
            if step % 8 == 7:
                system.run(float(rng.integers(5, 60)))
        system.run(200_000)

        seen = self.observed(cache_logs)
        fused = seen["act_rd"] + seen["act_wr"]
        plain = seen["read"] + seen["write"]
        ops = system.cache.meter.ops
        assert ops["cmd"] == fused + plain + seen["probe"]
        assert ops["act_tag"] == ops["hm_packet"] == fused + seen["probe"]
        assert ops["act_data"] == fused + plain

        mm_seen = self.observed(mm_logs)
        mm_commands = mm_seen["read"] + mm_seen["write"]
        mm_ops = system.mm_meter.ops
        assert mm_ops["cmd"] == mm_ops["col_op"] == mm_commands
        assert system.mm_meter.dq_bytes == 64 * mm_commands

        # The run exercised what the counts are meant to cover.
        outcomes = system.cache.metrics.outcomes
        assert outcomes["read_hit"] and outcomes["read_miss_clean"]
        assert outcomes["read_miss_dirty"] + outcomes["write_miss_dirty"]
        assert system.main_memory.writes_issued > 0
        assert seen["probe"] > 0 or design != "tdram"
