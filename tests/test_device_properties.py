"""Property tests on the channel issue planner.

The fixed-point `earliest_issue` must satisfy, for any traffic history:
the returned instant is at or after the request time, issuing exactly
there never raises, and the result is idempotent (asking again at the
granted time returns the same time). The floors each resource keeps at
commit must give the same answers as the formulas over raw resource
state that they replaced.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.dram.bus import Direction
from repro.dram.device import DramChannel
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.sim.kernel import Simulator

ACCESS = st.tuples(
    st.integers(min_value=0, max_value=15),       # bank
    st.booleans(),                                # is_write
    st.booleans(),                                # with_tag
    st.integers(min_value=0, max_value=5_000),    # requested delay (ps)
)


@settings(max_examples=60, deadline=None)
@given(accesses=st.lists(ACCESS, min_size=1, max_size=30))
def test_property_earliest_issue_is_legal_and_idempotent(accesses):
    channel = DramChannel(Simulator(), hbm3_cache_timing(), 16, "prop",
                          tag_timing=rldram_like_tag_timing(),
                          enable_refresh=False)
    t = 0
    for bank, is_write, with_tag, delay in accesses:
        requested = t + delay
        earliest = channel.earliest_issue(bank, requested, is_write,
                                          with_tag=with_tag)
        assert earliest >= requested
        # Idempotent: re-planning at the grant returns the grant.
        assert channel.earliest_issue(bank, earliest, is_write,
                                      with_tag=with_tag) == earliest
        grant = channel.issue_access(bank, earliest, is_write,
                                     with_tag=with_tag)  # must not raise
        assert grant.issue == earliest
        if grant.data_start is not None:
            assert grant.data_start > earliest
        if with_tag:
            assert grant.hm_at is not None
        t = earliest


@settings(max_examples=40, deadline=None)
@given(accesses=st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 63), st.booleans(),
              st.integers(0, 3_000)),
    min_size=1, max_size=30,
))
def test_property_open_page_planner_is_legal(accesses):
    channel = DramChannel(Simulator(), hbm3_cache_timing(), 16, "open",
                          enable_refresh=False, page_policy="open")
    t = 0
    for bank, row, is_write, delay in accesses:
        requested = t + delay
        earliest = channel.earliest_issue_open(bank, requested, row, is_write)
        assert earliest >= requested
        grant = channel.issue_access_open(bank, earliest, row, is_write)
        assert grant.data_start is not None
        assert grant.data_end > grant.data_start
        assert channel.banks[bank].open_row == row
        t = earliest


# ----------------------------------------------------------------------
# Kept floors against the formulas they replace
# ----------------------------------------------------------------------
#: banks per channel: few, so commands collide on banks often, but
#: more than a small activate window, so tXAW can bind before every
#: bank is busy for its tRC
FLOOR_BANKS = 8

#: one command-sequence step: (channel, kind, bank, row, is_write,
#: with_data, with_tag, delay before the step, issue slack) in ps
STEP = st.tuples(
    st.sampled_from(["close", "open"]),
    st.sampled_from(["access", "access", "access", "open_access",
                     "open_access", "probe", "raw", "refresh", "block"]),
    st.integers(0, FLOOR_BANKS - 1),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.one_of(st.just(0), st.integers(0, 2_000), st.integers(0, 60_000)),
    st.sampled_from([0, 0, 1, 1_000, 30_000]),
)


def window_earliest(at, activates, t_rrd, t_xaw, per_window):
    """tRRD after the last activate, tXAW after the ``per_window``-th
    last one once that many have issued."""
    t = at
    if activates:
        t = max(t, activates[-1] + t_rrd)
        if len(activates) >= per_window:
            t = max(t, activates[-per_window] + t_xaw)
    return t


def dq_earliest(channel, start, direction):
    """The DQ bus's free time plus the turnaround into ``direction``."""
    last = channel.dq.last_direction
    gap = 0
    if last is not None and last is not direction:
        gap = (channel.timing.tRTW if direction is Direction.WRITE
               else channel.timing.tWTR)
    return max(start, channel.dq.free_at + gap)


class FloorOracle:
    """The issue-time formulas, computed from public channel state and
    the activates this test issued, never from the kept floors."""

    def __init__(self, channel):
        self.channel = channel
        self.activates = []
        self.tag_activates = []

    def act_earliest(self, at):
        timing = self.channel.timing
        return window_earliest(at, self.activates, timing.tRRD, timing.tXAW,
                               timing.activates_per_window)

    def tag_act_earliest(self, at):
        return window_earliest(at, self.tag_activates,
                               self.channel.tag_timing.tRRD_TAG, 0, 1)

    def earliest_issue(self, bank, at, is_write, with_data, with_tag):
        channel = self.channel
        timing = channel.timing
        t = max(at, channel.ca.free_at, channel.banks[bank].ready_at,
                self.act_earliest(at))
        if with_data:
            if is_write:
                offset = timing.tRCD_WR + timing.tCWL
                direction = Direction.WRITE
            else:
                offset = timing.tRCD + timing.tCL
                direction = Direction.READ
            t = max(t, dq_earliest(channel, at + offset, direction) - offset)
        if with_tag and channel.tag_timing is not None:
            delay = channel.tag_timing.tRCD_TAG + channel.tag_timing.tHM
            t = max(t, channel.tag_banks[bank].ready_at,
                    self.tag_act_earliest(at),
                    max(at + delay, channel.hm.free_at) - delay)
        return t

    def earliest_issue_open(self, bank, at, row, is_write):
        channel = self.channel
        timing = channel.timing
        b = channel.banks[bank]
        cas = timing.tCWL if is_write else timing.tCL
        if b.open_row == row:
            offset = cas
        elif b.open_row < 0:
            offset = timing.tRCD + cas
        else:
            offset = timing.tRP + timing.tRCD + cas
        t = max(at, channel.ca.free_at, b.ready_at)
        if b.open_row != row:
            t = max(t, self.act_earliest(at))
            if b.open_row >= 0:
                t = max(t, b.precharge_not_before)
        direction = Direction.WRITE if is_write else Direction.READ
        return max(t, dq_earliest(channel, at + offset, direction) - offset)

    def probe_earliest(self, bank, at):
        channel = self.channel
        delay = channel.tag_timing.tRCD_TAG + channel.tag_timing.tHM
        return max(at, channel.ca.free_at, channel.tag_banks[bank].ready_at,
                   self.tag_act_earliest(at), channel.hm.free_at - delay)

    def can_probe(self, bank, at):
        channel = self.channel
        if channel.tag_timing is None:
            return False
        delay = channel.tag_timing.tRCD_TAG + channel.tag_timing.tHM
        return (at >= channel.ca.free_at
                and at >= channel.tag_banks[bank].ready_at
                and self.tag_act_earliest(at) <= at
                and at + delay >= channel.hm.free_at)

    def check(self, now, later):
        """Every planner answer equals the formula, at ``now`` and at
        ``later``, for every bank, flag mix and row state."""
        channel = self.channel
        for bank in range(FLOOR_BANKS):
            open_row = channel.banks[bank].open_row
            for at in (now, later):
                for is_write in (False, True):
                    for with_data in (False, True):
                        for with_tag in (False, True):
                            assert channel.earliest_issue(
                                bank, at, is_write, with_data=with_data,
                                with_tag=with_tag,
                            ) == self.earliest_issue(
                                bank, at, is_write, with_data, with_tag)
                    for row in {open_row, open_row + 1, 0, 5}:
                        if row >= 0:
                            assert channel.earliest_issue_open(
                                bank, at, row, is_write,
                            ) == self.earliest_issue_open(
                                bank, at, row, is_write)
                probe_ats = [at]
                if channel.tag_timing is not None:
                    edge = self.probe_earliest(bank, at)
                    probe_ats += [edge - 1, edge]
                for probe_at in probe_ats:
                    assert channel.can_probe(bank, probe_at) == \
                        self.can_probe(bank, probe_at)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(STEP, min_size=1, max_size=40),
    per_window=st.sampled_from([2, 4, 8]),
    refresh_policies=st.tuples(st.sampled_from(["all_bank", "per_bank"]),
                               st.sampled_from(["all_bank", "per_bank"])),
    later=st.integers(1, 50_000),
)
def test_property_kept_floors_match_the_formulas(steps, per_window,
                                                 refresh_policies, later):
    """The floors each resource keeps at commit give the same issue
    times as the formulas over raw resource state they replace.

    Two channels take random command sequences: a close-page one with a
    tag path and an open-page one without. Every step is one of the
    five state-changing channel methods or ``Bank.block_until``. A 2-
    or 4-activate window makes tXAW bind; with Table III's 8, tXAW =
    8 × tRRD never does."""
    sim = Simulator()
    timing = replace(hbm3_cache_timing(), activates_per_window=per_window)
    channels = {
        "close": DramChannel(sim, timing, FLOOR_BANKS, "close",
                             tag_timing=rldram_like_tag_timing(),
                             enable_refresh=False,
                             refresh_policy=refresh_policies[0]),
        "open": DramChannel(sim, timing, FLOOR_BANKS, "open",
                            enable_refresh=False, page_policy="open",
                            refresh_policy=refresh_policies[1]),
    }
    oracles = {name: FloorOracle(channel)
               for name, channel in channels.items()}
    for (name, kind, bank, row, is_write, with_data, with_tag, delay,
         slack) in steps:
        sim.run(until=sim.now + delay)  # may fire chained refreshes
        now = sim.now
        channel = channels[name]
        oracle = oracles[name]
        if kind == "access":
            at = oracle.earliest_issue(bank, now, is_write, with_data,
                                       with_tag) + slack
            channel.issue_access(bank, at, is_write, with_data=with_data,
                                 with_tag=with_tag)
            oracle.activates.append(at)
            if with_tag and channel.tag_timing is not None:
                oracle.tag_activates.append(at)
        elif kind == "open_access":
            at = oracle.earliest_issue_open(bank, now, row, is_write) + slack
            if channel.banks[bank].open_row != row:
                oracle.activates.append(at)
            channel.issue_access_open(bank, at, row, is_write)
        elif kind == "probe" and channel.tag_timing is not None:
            at = oracle.probe_earliest(bank, now) + slack
            assert channel.can_probe(bank, at)
            channel.issue_probe(bank, at)
            oracle.tag_activates.append(at)
        elif kind == "raw":
            direction = Direction.WRITE if is_write else Direction.READ
            channel.transfer_raw(now + slack, 64, direction)
        elif kind == "refresh":
            channel._do_refresh()
        elif kind == "block":
            banks = (channel.tag_banks if with_tag and channel.tag_banks
                     else channel.banks)
            banks[bank].block_until(now + slack)
        for oracle in oracles.values():
            oracle.check(sim.now, sim.now + later)
