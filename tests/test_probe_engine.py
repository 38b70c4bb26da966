"""Unit tests for the early-tag-probing selection policy (§III-E2)."""

from hypothesis import given, settings, strategies as st

from repro.cache.controller import CacheOp, OpKind
from repro.cache.request import DemandRequest, Op
from repro.core.probe import ProbeEngine
from repro.dram.device import DramChannel
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.sim.kernel import Simulator, ns


def make_channel():
    return DramChannel(Simulator(), hbm3_cache_timing(), 16, "p0",
                       tag_timing=rldram_like_tag_timing(),
                       enable_refresh=False)


def read_op(block: int, bank: int) -> CacheOp:
    demand = DemandRequest(op=Op.READ, block_addr=block)
    return CacheOp(OpKind.ACT_RD, block, bank, 0, demand=demand)


def write_op(block: int, bank: int) -> CacheOp:
    demand = DemandRequest(op=Op.WRITE, block_addr=block)
    return CacheOp(OpKind.ACT_WR, block, bank, 0, demand=demand)


class TestSelectionPolicy:
    def test_picks_youngest_eligible_read(self):
        channel = make_channel()
        channel.banks[0].block_until(ns(100))
        channel.banks[1].block_until(ns(100))
        queue = [read_op(0, 0), read_op(1, 1)]
        engine = ProbeEngine()
        selected = engine.select(channel, queue, 0)
        assert selected is queue[-1]  # youngest first (§III-E2)

    def test_skips_already_probed(self):
        channel = make_channel()
        channel.banks[0].block_until(ns(100))
        channel.banks[1].block_until(ns(100))
        queue = [read_op(0, 0), read_op(1, 1)]
        queue[1].demand.probed = True
        engine = ProbeEngine()
        assert engine.select(channel, queue, 0) is queue[0]

    def test_writes_are_not_probed(self):
        """§III-E2: probe slots are focused on reads."""
        channel = make_channel()
        channel.banks[0].block_until(ns(100))
        queue = [write_op(0, 0)]
        assert ProbeEngine().select(channel, queue, 0) is None

    def test_skips_next_in_line_for_a_soon_free_bank(self):
        """The oldest waiter on a bank freeing within the probe hold is
        not probed — that would conflict with its own MAIN command."""
        channel = make_channel()
        channel.banks[0].block_until(ns(5))  # frees inside tRC_TAG
        queue = [read_op(0, 0)]
        assert ProbeEngine().select(channel, queue, 0) is None

    def test_probes_deeper_waiter_on_soon_free_bank(self):
        channel = make_channel()
        channel.banks[0].block_until(ns(5))
        queue = [read_op(0, 0), read_op(64, 0)]  # two waiters, same bank
        selected = ProbeEngine().select(channel, queue, 0)
        assert selected is queue[1]  # the younger one cannot issue next

    def test_respects_busy_tag_resources(self):
        channel = make_channel()
        channel.banks[0].block_until(ns(100))
        channel.issue_probe(0, 0)  # tag bank 0 now busy for tRC_TAG
        queue = [read_op(0, 0)]
        engine = ProbeEngine()
        assert not channel.can_probe(0, ns(2))
        assert engine.select(channel, queue, ns(2)) is None

    def test_empty_queue_selects_nothing(self):
        assert ProbeEngine().select(make_channel(), [], 0) is None

    def test_no_tag_path_selects_nothing(self):
        channel = DramChannel(Simulator(), hbm3_cache_timing(), 16, "x",
                              enable_refresh=False)
        queue = [read_op(0, 0)]
        assert ProbeEngine().select(channel, queue, 0) is None

    def test_stats_accessors(self):
        engine = ProbeEngine()
        engine.record_issue()
        engine.record_bank_conflict()
        assert engine.probes == 1
        assert engine.bank_conflicts == 1


def probe_fits(channel, bank, now):
    """``can_probe`` written out from public state: the CA bus, the tag
    bank, the tag activation window and the HM slot are all free."""
    return (now >= channel.ca.free_at
            and now >= channel.tag_banks[bank].ready_at
            and now >= channel.tag_act_window.floor
            and now + channel.tag_timing.hm_result_delay
            >= channel.hm.free_at)


def reference_select(channel, read_q, now):
    """The selection rule as first written: build the oldest-per-bank
    map, then walk every queued read, youngest first, asking whether a
    probe fits for each candidate."""
    if channel.tag_timing is None:
        return None
    hold = channel.tag_timing.tRC_TAG
    oldest_for_bank = {}
    for op in read_q:
        oldest_for_bank.setdefault(op.bank, op)
    for op in reversed(read_q):
        demand = op.demand
        if demand is None or demand.op is not Op.READ or demand.probed:
            continue
        if (channel.banks[op.bank].ready_at < now + hold
                and oldest_for_bank[op.bank] is op):
            continue
        if probe_fits(channel, op.bank, now):
            return op
    return None


PROBE_BANKS = 4
#: slot floors at, just before or just after their probe edges: a floor
#: at ``now + offset`` (the HM floor at ``now + hm_result_delay +
#: offset``), free three times in four
_edge = st.sampled_from([-1, 0, 0, 1]).map(ns)
#: data-bank floors before ``now``, inside the probe hold (12 ns), on
#: its edge and past it
_bank_offsets = st.lists(st.sampled_from([-1, 0, 6, 11, 12, 13]).map(ns),
                         min_size=PROBE_BANKS, max_size=PROBE_BANKS)
_queued = st.lists(
    st.tuples(st.integers(0, PROBE_BANKS - 1),
              st.sampled_from(["read", "probed", "write", "victim"])),
    max_size=10)


@settings(max_examples=500, deadline=None)
@given(ca=_edge, act=_edge, hm=_edge, banks=_bank_offsets,
       tag_banks=st.lists(_edge, min_size=PROBE_BANKS, max_size=PROBE_BANKS),
       queued=_queued)
def test_property_select_matches_the_reference_rule(ca, act, hm, banks,
                                                    tag_banks, queued):
    """Over random slot floors, bank states and queues, ``select`` picks
    what the reference rule picks, and nothing while no bank can take
    a probe (the early exit on a busy CA bus, tag activation window or
    HM slot); ``can_probe`` agrees with its formula on every bank."""
    tag_timing = rldram_like_tag_timing()
    channel = DramChannel(Simulator(), hbm3_cache_timing(), PROBE_BANKS,
                          "p", tag_timing=tag_timing, enable_refresh=False)
    now = ns(20)
    channel.ca.free_at = now + ca
    channel.tag_act_window.floor = now + act
    channel.hm.free_at = now + tag_timing.hm_result_delay + hm
    for bank, offset in enumerate(banks):
        channel.banks[bank].ready_at = now + offset
    for bank, offset in enumerate(tag_banks):
        channel.tag_banks[bank].ready_at = now + offset
    read_q = []
    for block, (bank, kind) in enumerate(queued):
        if kind == "victim":
            read_q.append(CacheOp(OpKind.ACT_RD, block, bank, 0,
                                  victim_block=block))
        elif kind == "write":
            read_q.append(write_op(block, bank))
        else:
            op = read_op(block, bank)
            op.demand.probed = kind == "probed"
            read_q.append(op)
    selected = ProbeEngine().select(channel, read_q, now)
    assert selected is reference_select(channel, read_q, now)
    for bank in range(PROBE_BANKS):
        assert channel.can_probe(bank, now) == probe_fits(channel, bank, now)
    if not any(probe_fits(channel, bank, now) for bank in range(PROBE_BANKS)):
        assert selected is None
