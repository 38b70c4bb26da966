"""Unit tests for the DDR5 backing store model."""

import itertools

import pytest

from repro.config.system import MIB, SystemConfig
from repro.dram.address import DecodedAddress
from repro.memory.main_memory import HIGH_WATERMARK, LOW_WATERMARK, MainMemory
from repro.sim.kernel import Simulator, ns


def make_mm(channels=2):
    sim = Simulator()
    config = SystemConfig(cache_capacity_bytes=1 * MIB,
                          mm_capacity_bytes=16 * MIB,
                          mm_channels=channels)
    mm = MainMemory(sim, config.mm_timing, config.mm_geometry())
    return sim, mm


def block_at(mm, bank, row, channel=0):
    """The block address of column 0 of ``row`` in ``bank``."""
    return mm.mapper.encode(
        DecodedAddress(channel=channel, bank=bank, row=row, column=0))


class TestReads:
    def test_unloaded_read_latency(self):
        sim, mm = make_mm()
        finishes = []
        mm.read(0, finishes.append)
        sim.run(until=ns(500))
        assert len(finishes) == 1
        # ACT + CAS + burst on an idle open-page channel: tRCD+tCL+tBURST.
        assert finishes[0] == ns(16 + 16 + 2)

    def test_row_hit_latency_is_cas_only(self):
        sim, mm = make_mm()
        finishes = []
        mm.read(0, finishes.append)
        sim.run(until=ns(200))
        mm.read(1, finishes.append)  # same row (RoRaBaChCo: column+1)
        start = sim.now
        sim.run(until=ns(500))
        assert finishes[1] - start == pytest.approx(ns(16 + 2) + 1000, abs=2000)

    def test_reads_complete_in_arrival_order_same_bank(self):
        sim, mm = make_mm()
        finishes = []
        for i in range(4):
            mm.read(i, lambda t, i=i: finishes.append((i, t)))
        sim.run(until=ns(2000))
        assert [i for i, _t in finishes] == [0, 1, 2, 3]

    def test_callbackless_read_allowed(self):
        sim, mm = make_mm()
        mm.read(0, None)
        sim.run(until=ns(500))
        assert mm.reads_issued == 1

    def test_demand_age_orders_queued_reads(self):
        """Reads waiting on one bank issue by demand age (``order``),
        not arrival: an early-launched fetch never overtakes an older
        demand's fetch."""
        sim, mm = make_mm()
        issued = []
        mm.read(block_at(mm, bank=0, row=0), None)   # occupies bank 0
        mm.read(block_at(mm, bank=0, row=1),
                lambda _t: issued.append("younger"), order=20)
        sim.run(until=ns(1))
        mm.read(block_at(mm, bank=0, row=2),
                lambda _t: issued.append("older"), order=10)
        sim.run(until=ns(2000))
        assert issued == ["older", "younger"]

    def test_channel_interleaving(self):
        _sim, mm = make_mm(channels=2)
        # RoRaBaChCo: a row's worth of blocks per channel, then switch.
        columns = mm.mapper.geometry.columns_per_row
        assert mm.mapper.decode(0).channel == 0
        assert mm.mapper.decode(columns).channel == 1


class TestWrites:
    def test_writes_drain_eventually(self):
        sim, mm = make_mm()
        for i in range(10):
            mm.write(i)
        sim.run(until=ns(5000))
        assert mm.pending() == 0
        assert mm.writes_issued == 10

    def test_reads_prioritised_over_small_write_backlog(self):
        sim, mm = make_mm()
        for i in range(4):
            mm.write(i * 64)
        finishes = []
        mm.read(4096, finishes.append)
        sim.run(until=ns(3000))
        assert finishes, "read never completed"
        # The read completed while writes were still allowed to linger.
        assert finishes[0] < ns(300)

    def test_write_drain_watermark_engages(self):
        """The drain is sticky: at the low watermark it ends only once a
        read waits, so writes posted meanwhile keep draining ahead of a
        read that arrives later."""
        sim, mm = make_mm(channels=2)
        scheduler = mm._schedulers[0]
        banks = mm.mapper.geometry.banks_per_channel
        posted = itertools.count()

        def post_writes(count):
            for _ in range(count):
                n = next(posted)
                mm.write(block_at(mm, bank=n % banks, row=n // banks))

        post_writes(HIGH_WATERMARK + 4)
        sim.run(max_events=1)
        assert scheduler.draining
        # Issue a few writes below the low watermark, no read waiting.
        while len(scheduler.write_q) > LOW_WATERMARK // 2:
            sim.run(max_events=1)
        assert scheduler.draining   # no read waits: the drain holds
        post_writes(2 * LOW_WATERMARK)
        assert LOW_WATERMARK < len(scheduler.write_q) < HIGH_WATERMARK
        writes_left = []
        mm.read(block_at(mm, bank=0, row=1000),
                lambda _t: writes_left.append(len(scheduler.write_q)))
        sim.run(until=sim.now + ns(5000))
        # The read waited for the drain to reach the low watermark.
        assert writes_left and writes_left[0] <= LOW_WATERMARK


class TestStats:
    def test_mean_read_latency_aggregates_channels(self):
        sim, mm = make_mm()
        done = []
        mm.read(0, done.append)
        mm.read(32, done.append)
        sim.run(until=ns(1000))
        assert mm.mean_read_latency_ns > 0
