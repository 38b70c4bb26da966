"""Scheduler corner cases and randomised protocol stress tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import DESIGNS
from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.controller import CacheOp, OpKind
from repro.cache.ideal import IdealCache
from repro.cache.ndc import NdcCache
from repro.cache.tdram import TdramCache
from repro.config.system import MIB, SystemConfig
from repro.dram.monitor import ProtocolChecker
from repro.errors import CapacityError


class TestChannelSchedulerMechanics:
    def test_write_buffer_capacity_enforced(self, make_system):
        system = make_system(IdealCache)
        scheduler = system.cache.schedulers[0]
        scheduler.write_capacity = 2
        scheduler.push_write(CacheOp(OpKind.DATA_WRITE, 0, 0, 0))
        # fill without letting the sim drain
        scheduler.write_q.append(CacheOp(OpKind.DATA_WRITE, 8, 1, 0))
        scheduler.write_q.append(CacheOp(OpKind.DATA_WRITE, 16, 2, 0))
        with pytest.raises(CapacityError):
            scheduler.push_write(CacheOp(OpKind.DATA_WRITE, 24, 3, 0))
        # forced pushes (fills) bypass the bound instead of deadlocking
        scheduler.push_write(CacheOp(OpKind.DATA_WRITE, 24, 3, 0, is_fill=True),
                             forced=True)

    def test_write_drain_hysteresis(self, make_system):
        system = make_system(IdealCache)
        scheduler = system.cache.schedulers[0]
        scheduler.high_watermark = 4
        scheduler.low_watermark = 1
        for i in range(4):
            scheduler.write_q.append(CacheOp(OpKind.DATA_WRITE, i * 8, i, 0))
        scheduler._update_drain_mode()
        assert scheduler.draining
        scheduler.write_q[:] = scheduler.write_q[:1]
        scheduler._update_drain_mode()
        assert not scheduler.draining
        # Refill between the watermarks, then a read arrives: the drain
        # has ended, so the read is served ahead of the writes.
        scheduler.write_q.append(CacheOp(OpKind.DATA_WRITE, 8, 1, 0))
        read = CacheOp(OpKind.DATA_READ, 16, 2, 0, victim_block=16)
        scheduler.read_q.append(read)
        scheduler._try_issue()
        assert scheduler.read_q == []
        assert len(scheduler.write_q) == 2

    def test_fr_fcfs_prefers_ready_bank(self, make_system):
        system = make_system(IdealCache)
        scheduler = system.cache.schedulers[0]
        channel = system.cache.channels[0]
        channel.banks[0].block_until(1_000_000)
        blocked = CacheOp(OpKind.DATA_WRITE, 0, 0, 0)
        ready = CacheOp(OpKind.DATA_WRITE, 8, 1, 0)
        selected = scheduler._select([blocked, ready], at=0)
        assert selected is ready

    def test_fr_fcfs_falls_back_to_oldest(self, make_system):
        system = make_system(IdealCache)
        scheduler = system.cache.schedulers[0]
        channel = system.cache.channels[0]
        channel.banks[0].block_until(1_000_000)
        channel.banks[1].block_until(1_000_000)
        first = CacheOp(OpKind.DATA_WRITE, 0, 0, 0)
        second = CacheOp(OpKind.DATA_WRITE, 8, 1, 0)
        assert scheduler._select([first, second], at=0) is first

    def test_mshr_bound_gates_read_acceptance(self, make_system):
        from repro.cache.request import Op

        system = make_system(TdramCache)
        system.cache.mshr_limit = 2
        system.cache._mshrs = {1: [], 2: []}
        assert not system.cache.can_accept(Op.READ, 0)
        system.cache._mshrs.clear()
        assert system.cache.can_accept(Op.READ, 0)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    design_name=st.sampled_from(["cascade_lake", "ndc", "tdram", "ideal"]),
)
def test_property_random_traffic_is_protocol_clean(seed, design_name):
    """Random demand sequences never violate DRAM protocol rules.

    A ProtocolChecker is attached to every cache channel; any illegal
    command stream (overlapping CA grants, tRC violations, inverted
    data windows) raises at the offending commit.
    """
    import numpy as np

    from tests.conftest import System

    config = SystemConfig(cache_capacity_bytes=1 * MIB,
                          mm_capacity_bytes=16 * MIB, cores=2)
    system = System(DESIGNS[design_name], config)
    timing = config.cache_timing
    for channel in system.cache.channels:
        channel.observers.append(
            ProtocolChecker(t_rc=timing.tRC, t_cmd=timing.tCMD))
    rng = np.random.default_rng(seed)
    for _ in range(60):
        block = int(rng.integers(0, 2048))
        if rng.random() < 0.35:
            system.write(block)
        else:
            system.read(block)
        system.run(float(rng.integers(5, 300)))
    system.run(100_000)
    # All reads eventually completed despite the random interleaving.
    reads = system.cache.metrics.outcomes["reads"]
    assert len(system.completed) == reads
