"""Tests for command logging and protocol checking observers."""

import pytest

from repro.cache.tdram import TdramCache
from repro.dram.device import DramChannel
from repro.dram.monitor import (ChannelObserver, CommandLog, CommandRecord,
                                ProtocolChecker)
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import ProtocolError
from repro.sim.kernel import Simulator, ns


def make_channel():
    return DramChannel(Simulator(), hbm3_cache_timing(), 16, "m0",
                       tag_timing=rldram_like_tag_timing(),
                       enable_refresh=False)


class TestCommandLog:
    def test_records_committed_commands(self):
        channel = make_channel()
        log = CommandLog()
        channel.observers.append(log)
        channel.issue_access(3, 0, is_write=False, with_tag=True)
        channel.issue_probe(5, ns(2))
        assert log.counts["act_rd"] == 1
        assert log.counts["probe"] == 1
        assert log.records[0].bank == 3
        assert log.records[0].data_start == ns(30)

    def test_write_command_named(self):
        channel = make_channel()
        log = CommandLog()
        channel.observers.append(log)
        channel.issue_access(0, 0, is_write=True, with_tag=True)
        assert log.counts["act_wr"] == 1

    def test_plain_accesses_logged_as_read_write(self):
        channel = DramChannel(Simulator(), hbm3_cache_timing(), 16, "m1",
                              enable_refresh=False)
        log = CommandLog()
        channel.observers.append(log)
        channel.issue_access(0, 0, is_write=False)
        assert log.counts["read"] == 1

    def test_refresh_logged(self):
        sim = Simulator()
        channel = DramChannel(sim, hbm3_cache_timing(), 16, "m2",
                              enable_refresh=True)
        log = CommandLog()
        channel.observers.append(log)
        sim.run(until=hbm3_cache_timing().tREFI + 1)
        assert log.counts["refresh"] == 1
        assert log.records[-1].bank == -1

    def test_capacity_bound_drops_overflow(self):
        channel = make_channel()
        log = CommandLog(capacity=2)
        channel.observers.append(log)
        at = 0
        for bank in range(4):
            at = channel.earliest_issue(bank, at, is_write=False)
            channel.issue_access(bank, at, is_write=False)
        assert len(log.records) == 2
        assert log.dropped == 2
        assert log.counts["read"] == 4  # counters keep counting

    def test_between_and_timeline(self):
        channel = make_channel()
        log = CommandLog()
        channel.observers.append(log)
        channel.issue_access(0, 0, is_write=False, with_tag=True)
        at = channel.earliest_issue(1, 0, is_write=False)
        channel.issue_access(1, at, is_write=False, with_tag=True)
        window = log.between(0, ns(100))
        assert len(window) == 2
        timeline = log.render_timeline(0, ns(10), resolution_ps=ns(1))
        assert "bank   0" in timeline and "R" in timeline

    def test_timeline_validation(self):
        with pytest.raises(ProtocolError):
            CommandLog().render_timeline(10, 10)
        with pytest.raises(ProtocolError):
            CommandLog(capacity=0)


class TestChannelObserver:
    def test_subclass_without_on_command_fails_at_construction(self):
        assert ChannelObserver.__abstractmethods__ == {"on_command"}
        with pytest.raises(TypeError, match="abstract"):
            type("HalfImplemented", (ChannelObserver,), {})()


class TestProtocolChecker:
    def test_accepts_legal_stream(self):
        timing = hbm3_cache_timing()
        checker = ProtocolChecker(t_rc=timing.tRC, t_cmd=timing.tCMD)
        channel = make_channel()
        channel.observers.append(checker)
        at = 0
        for i in range(8):
            bank = i % 4
            at = channel.earliest_issue(bank, at, is_write=False,
                                        with_tag=True)
            channel.issue_access(bank, at, is_write=False, with_tag=True)
        assert checker.commands_checked == 8

    def test_detects_trc_violation(self):
        checker = ProtocolChecker(t_rc=ns(42), t_cmd=ns(1))
        checker.on_command(CommandRecord(0, "act_rd", bank=2))
        with pytest.raises(ProtocolError):
            checker.on_command(CommandRecord(ns(10), "act_rd", bank=2))

    def test_detects_time_regression(self):
        checker = ProtocolChecker(t_rc=ns(42), t_cmd=ns(1))
        checker.on_command(CommandRecord(ns(10), "act_rd", bank=0))
        with pytest.raises(ProtocolError):
            checker.on_command(CommandRecord(ns(5), "act_rd", bank=1))

    def test_detects_inverted_data_window(self):
        checker = ProtocolChecker(t_rc=0, t_cmd=ns(1))
        with pytest.raises(ProtocolError):
            checker.on_command(
                CommandRecord(0, "read", bank=0, data_start=10, data_end=10))

    def test_full_tdram_run_is_protocol_clean(self, make_system):
        """Stress: a whole simulation under the checker raises nothing."""
        system = make_system(TdramCache)
        timing = system.config.cache_timing
        checkers = []
        for channel in system.cache.channels:
            checker = ProtocolChecker(t_rc=timing.tRC, t_cmd=timing.tCMD)
            channel.observers.append(checker)
            checkers.append(checker)
        for i in range(40):
            block = (i * 37) % 4096
            if i % 3 == 0:
                system.write(block)
            else:
                system.read(block)
            system.run(120)
        system.run(30_000)
        assert sum(c.commands_checked for c in checkers) > 0
