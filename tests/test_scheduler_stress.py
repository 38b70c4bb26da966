"""Scheduler corner cases, randomised protocol stress tests, and the
checks that keep blocked-decision reuse exact."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import DESIGNS
from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.controller import CacheOp, OpKind
from repro.cache.ideal import IdealCache
from repro.cache.ndc import NdcCache
from repro.cache.request import DemandRequest, Op
from repro.cache.tdram import TdramCache
from repro.config.system import MIB, SystemConfig
from repro.dram.bus import Direction
from repro.dram.device import DramChannel
from repro.dram.monitor import ProtocolChecker
from repro.dram.scheduler import ChannelScheduler
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import CapacityError
from repro.memory.main_memory import MainMemory, _Request
from repro.sim.kernel import Simulator, ns
from tests.heap_reference import HeapSimulator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden_runs  # noqa: E402


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
        system = make_system(TdramCache)
        system.cache.mshr_limit = 2
        system.cache._mshrs = {1: [], 2: []}
        assert not system.cache.can_accept(Op.READ, 0)
        system.cache._mshrs.clear()
        assert system.cache.can_accept(Op.READ, 0)


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
    reads = system.cache.metrics.total("reads")
    assert len(system.completed) == reads


# ----------------------------------------------------------------------
# Blocked-decision reuse
# ----------------------------------------------------------------------
#: every DramChannel method that changes state an issue decision reads
CHANNEL_MUTATORS = {
    "issue_access": lambda ch: ch.issue_access(0, 0, is_write=False),
    "issue_access_open": lambda ch: ch.issue_access_open(0, 0, 3, False),
    "issue_probe": lambda ch: ch.issue_probe(0, 0),
    "transfer_raw": lambda ch: ch.transfer_raw(0, 64, Direction.READ),
    "_do_refresh": lambda ch: ch._do_refresh(),
}


@pytest.mark.parametrize("mutator", sorted(CHANNEL_MUTATORS))
def test_channel_mutator_bumps_version(mutator):
    channel = DramChannel(Simulator(), hbm3_cache_timing(), 16, "t0",
                          tag_timing=rldram_like_tag_timing(),
                          enable_refresh=False)
    before = channel.version
    CHANNEL_MUTATORS[mutator](channel)
    assert channel.version > before


def test_blocked_work_bound_only_when_probing(make_system):
    """Only TDRAM with probing gives its schedulers blocked-slot work,
    each bound to its own channel; TDRAM without probing, NDC,
    cascade_lake and the DDR5 store leave ``blocked_work`` as None."""
    for design, overrides, probes in [
        (TdramCache, {}, True),
        (TdramCache, {"enable_probing": False}, False),
        (NdcCache, {}, False),
        (CascadeLakeCache, {}, False),
    ]:
        system = make_system(design, **overrides)
        for index, scheduler in enumerate(system.cache.schedulers):
            work = scheduler.blocked_work
            if probes:
                assert work.func == system.cache._on_blocked
                assert work.args == (index,)
            else:
                assert work is None, design
        for scheduler in system.main_memory._schedulers:
            assert scheduler.blocked_work is None


def ddr5_request(bank, order, is_write=False):
    """A queued DDR5 access to row 5 of ``bank``, arriving at t=0."""
    return _Request(bank, 5, 0, order, is_write, None)


def blocked_ddr5_scheduler():
    """A DDR5 channel scheduler blocked at t=0 on a read to busy bank 0."""
    sim = Simulator()
    config = SystemConfig(cache_capacity_bytes=1 * MIB,
                          mm_capacity_bytes=16 * MIB)
    memory = MainMemory(sim, config.mm_timing, config.mm_geometry())
    scheduler = memory._schedulers[0]
    scheduler.channel.banks[0].block_until(ns(100))
    waiting = ddr5_request(0, 0)
    scheduler.push_read(waiting)
    assert scheduler._blocked == (0, scheduler.channel.version, ns(100))
    return scheduler, waiting


QUEUE_MUTATORS = {
    "push_read": lambda s, _waiting: s.push_read(ddr5_request(1, 1)),
    "push_write": lambda s, _waiting: s.push_write(
        ddr5_request(1, 1, is_write=True)),
    "remove_read": lambda s, waiting: s.remove_read(waiting),
}


@pytest.mark.parametrize("mutator", sorted(QUEUE_MUTATORS))
def test_queue_mutator_forgets_blocked_decision(mutator):
    scheduler, waiting = blocked_ddr5_scheduler()
    QUEUE_MUTATORS[mutator](scheduler, waiting)
    assert scheduler._blocked is None


def test_ready_read_arriving_at_blocked_instant_issues_then():
    """A read for a ready bank, queued at the instant the channel was
    found blocked, issues on that instant's next poll (the same-instant
    re-poll a still-queued wake event makes)."""
    scheduler, waiting = blocked_ddr5_scheduler()
    ready = ddr5_request(1, 1)
    scheduler.push_read(ready)
    assert scheduler.read_q == [waiting, ready]  # a wake is still pending
    scheduler._on_wake()
    assert scheduler.read_q == [waiting]
    assert scheduler.channel.banks[1].open_row == 5


def batched_wakes_log(make_sim, probes):
    """What a DDR5 channel scheduler blocked at t=0 does with three
    wakes queued at that instant (the pattern orphaned wakes make),
    under the kernel ``make_sim``. With ``probes`` None it has no
    blocked work; otherwise its blocked work is logged, and the calls
    numbered in ``probes`` bump ``channel.version`` as a TDRAM probe
    does."""
    sim = make_sim()
    config = SystemConfig(cache_capacity_bytes=1 * MIB,
                          mm_capacity_bytes=16 * MIB)
    memory = MainMemory(sim, config.mm_timing, config.mm_geometry())
    scheduler = memory._schedulers[0]
    channel = scheduler.channel
    log = []
    if probes is not None:
        def work(now):
            log.append(("work", now, channel.version))
            if len(log) in probes:
                channel.version += 1

        scheduler.blocked_work = work
    channel.banks[0].block_until(ns(100))
    scheduler.push_read(ddr5_request(0, 0))
    sim.wake(0, scheduler._wake, 3)
    for until in (ns(50), ns(300)):
        dispatched = sim.run(until=until)
        log.append((until, dispatched, sim.pending(), scheduler._wake_at,
                    len(scheduler.read_q), channel.banks[0].open_row))
    return log


@pytest.mark.parametrize("probes", [None, set(), {2}, {2, 3}],
                         ids=["no-work", "work", "probe-2", "probe-2-3"])
def test_batched_wakes_match_unfolded_wakes(probes):
    """``_on_wake`` given a batch does what the same wakes do one at a
    time under the reference heap, which never folds: with no blocked
    work it folds the re-arms, with blocked work it runs every wake,
    and a probe makes the next wake decide again."""
    log = batched_wakes_log(Simulator, probes)
    assert log == batched_wakes_log(HeapSimulator, probes)
    # The push's decision, then one call per wake.
    works = [entry for entry in log if entry[0] == "work"]
    assert len(works) == (0 if probes is None else 4)


def full_decision(scheduler, now):
    """The blocked-or-issue decision ``_try_issue`` makes without reuse:
    ``(queue, op, earliest issue time)``, or None on empty queues."""
    scheduler._update_drain_mode()
    read_q, write_q = scheduler.read_q, scheduler.write_q
    queue = write_q if write_q and (scheduler.draining or not read_q) else read_q
    if not queue:
        return None
    op = scheduler._select(queue, now)
    name = "write" if queue is write_q else "read"
    return name, op, scheduler.earliest(op, now)


#: (design, workload)
SHADOW_CELLS = [(design, workload)
                for workload in ("write_storm", "lu.C")
                for design in ("no_cache", "cascade_lake", "tdram", "ndc",
                               "ideal")]
#: the polling worst cases: at least a third of their polls reuse
REUSE_FLOOR_CELLS = {("no_cache", "lu.C"), ("cascade_lake", "write_storm")}


def shadow_id(cell):
    """``design/workload/ddr5``, naming the backing store as the golden
    keys do."""
    return "/".join(cell) + "/ddr5"


@pytest.mark.parametrize("cell", SHADOW_CELLS, ids=shadow_id)
def test_reused_decisions_match_full_decision(cell, monkeypatch):
    """Every reused blocked decision equals the full decision recomputed
    on the spot, and the run stays bit-identical to its golden digest.

    A poll is a wake or a kick that reaches a decision. Only a wake can
    find the blocked decision current, and ``_on_wake`` re-arms it
    without entering ``_try_issue``; every other poll, from a wake or a
    kick, decides in ``_try_issue``. Both are shadowed, so each poll is
    seen once, whichever method makes it. The kernel may hand
    ``_on_wake`` a batch of folded wakes; the shadow passes them to the
    original one at a time, in order, so polls are counted per wake."""
    original_try_issue = ChannelScheduler._try_issue
    original_on_wake = ChannelScheduler._on_wake
    decided = {}
    counts = {"polls": 0, "reused": 0}

    def memo_is_current(scheduler):
        memo = scheduler._blocked
        return memo is not None and memo[:2] == (scheduler.sim.now,
                                                 scheduler.channel.version)

    def shadowed_on_wake(scheduler, count=1):
        for _ in range(count):
            if memo_is_current(scheduler):  # re-armed without _try_issue
                counts["polls"] += 1
                counts["reused"] += 1
                now = scheduler.sim.now
                assert full_decision(scheduler, now) == decided[scheduler]
            original_on_wake(scheduler)

    def shadowed_try_issue(scheduler):
        now = scheduler.sim.now
        version = scheduler.channel.version
        memo = scheduler._blocked
        assert not memo_is_current(scheduler)
        counts["polls"] += 1
        decision = full_decision(scheduler, now)
        original_try_issue(scheduler)
        if scheduler._blocked is not memo:
            assert decision is not None and decision[2] > now
            assert scheduler._blocked == (now, version, decision[2])
            decided[scheduler] = decision

    monkeypatch.setattr(ChannelScheduler, "_on_wake", shadowed_on_wake)
    monkeypatch.setattr(ChannelScheduler, "_try_issue", shadowed_try_issue)
    row = golden_runs.run_cell(cell)
    expected = golden_runs.load()["cells"].get(golden_runs.cell_key(cell))
    if expected is not None:
        assert row == expected
    if cell in REUSE_FLOOR_CELLS:
        assert counts["reused"] * 3 >= counts["polls"], counts


#: (design, workload) cells of the poll-invariance oracle, all golden
POLL_CELLS = [(design, workload)
              for workload in ("ft.D", "write_storm")
              for design in ("tdram", "cascade_lake", "no_cache")]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
@pytest.mark.parametrize("period", [1000, 997])
@pytest.mark.parametrize("cell", POLL_CELLS, ids="/".join)
def test_results_do_not_depend_on_polling(cell, period, monkeypatch):
    """Poll-invariance oracle: an extra ``_try_issue`` on every channel
    every ``period`` ps must not move any simulated result, because the
    issue loop should already decide at every instant a decision can
    change. Only ``sim_events``, which counts the polls, may move."""
    original_init = ChannelScheduler.__init__

    def polled_init(scheduler, *args, **kwargs):
        original_init(scheduler, *args, **kwargs)
        schedule = scheduler.sim.schedule

        def poll():
            scheduler._try_issue()
            schedule(period, poll)

        schedule(period, poll)

    monkeypatch.setattr(ChannelScheduler, "__init__", polled_init)
    key = golden_runs.cell_key(cell)
    expected = golden_runs.load()["cells"][key]
    actual = golden_runs.run_cell(cell)
    moved = [name for name in golden_runs.moved_fields(expected, actual)
             if name != "sim_events"]
    assert not moved, golden_runs.describe_drift(key, expected, actual)
