"""Unit tests for CA/HM/DQ bus models, including turnaround rules."""

import pytest

from repro.dram.bus import Bus, DataBus, Direction
from repro.errors import ProtocolError
from repro.sim.kernel import ns


class TestUnidirectionalBus:
    def test_back_to_back_grants(self):
        bus = Bus("ca")
        assert bus.reserve(0, ns(1)) == ns(1)
        assert bus.reserve(ns(1), ns(1)) == ns(2)
        assert bus.grants == 2
        assert bus.busy_time == ns(2)

    def test_overlapping_grant_rejected(self):
        bus = Bus("ca")
        bus.reserve(0, ns(2))
        with pytest.raises(ProtocolError):
            bus.reserve(ns(1), ns(1))

    def test_negative_duration_rejected(self):
        with pytest.raises(ProtocolError):
            Bus("ca").reserve(0, -1)

    def test_earliest_respects_previous_grant(self):
        bus = Bus("hm")
        bus.reserve(ns(5), ns(3))
        assert bus.earliest(0) == ns(8)
        assert bus.earliest(ns(10)) == ns(10)

    def test_is_free(self):
        bus = Bus("hm")
        bus.reserve(0, ns(4))
        assert bus.free_at == ns(4)
        assert bus.reserve(ns(4), ns(1)) == ns(5)


class TestDataBusTurnaround:
    def make(self):
        return DataBus("dq", t_rtw=ns(4), t_wtr=ns(8))

    def test_first_grant_has_no_turnaround(self):
        dq = self.make()
        assert dq.read_floor == dq.write_floor == dq.free_at == 0
        dq.reserve_dir(0, ns(2), Direction.READ)
        assert dq.last_direction is Direction.READ

    def test_same_direction_has_no_gap(self):
        dq = self.make()
        dq.reserve_dir(0, ns(2), Direction.READ)
        assert dq.read_floor == dq.free_at
        dq.reserve_dir(ns(2), ns(2), Direction.READ)
        assert dq.turnarounds == 0

    def test_read_to_write_pays_trtw(self):
        dq = self.make()
        dq.reserve_dir(0, ns(2), Direction.READ)
        assert dq.write_floor - dq.free_at == ns(4)
        assert dq.earliest_dir(0, Direction.WRITE) == ns(6)
        dq.reserve_dir(ns(6), ns(2), Direction.WRITE)
        assert dq.turnarounds == 1
        assert dq.turnaround_time == ns(4)

    def test_write_to_read_pays_twtr(self):
        dq = self.make()
        dq.reserve_dir(0, ns(2), Direction.WRITE)
        assert dq.read_floor - dq.free_at == ns(8)

    def test_grant_violating_turnaround_rejected(self):
        dq = self.make()
        dq.reserve_dir(0, ns(2), Direction.READ)
        with pytest.raises(ProtocolError):
            dq.reserve_dir(ns(3), ns(2), Direction.WRITE)

    def test_plain_reserve_forbidden_on_dq(self):
        with pytest.raises(ProtocolError):
            self.make().reserve(0, ns(2))

    def test_alternating_directions_accumulate_turnaround_time(self):
        dq = self.make()
        t = dq.reserve_dir(0, ns(2), Direction.WRITE)
        t = dq.reserve_dir(dq.earliest_dir(t, Direction.READ), ns(2), Direction.READ)
        t = dq.reserve_dir(dq.earliest_dir(t, Direction.WRITE), ns(2), Direction.WRITE)
        assert dq.turnarounds == 2
        assert dq.turnaround_time == ns(8) + ns(4)
