"""TDRAM cache controller — the paper's contribution (§III).

Per Table II, every access is one fused command:

========================  ======  ===========  ================  =========================
Cache access              CMD     DQ activity  HM bus            Later actions
========================  ======  ===========  ================  =========================
Read hit (clean/dirty)    ActRd   hit data     hit               none
Read to invalid / m-clean ActRd   none         miss              read main mem & fill
Read miss dirty           ActRd   dirty data   miss + dirty tag  mm read & fill; writeback
Write (all hit/clean)     ActWr   wr data      hit/miss          none
Write miss dirty          ActWr   wr data      miss + dirty tag  victim -> flush buffer
========================  ======  ===========  ================  =========================

The HM result arrives ``tRCD_TAG + tHM`` after the command — before the
data slot — enabling the conditional column operation. Early tag
probing (§III-E) opportunistically resolves queued reads ahead of
their MAIN slot; the flush buffer (§III-D2) absorbs dirty victims on
write misses so the DQ bus never turns around mid-write-burst.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.cache.controller import CacheOp, DramCacheController, OpKind
from repro.cache.request import DemandRequest, Op, Outcome
from repro.config.system import SystemConfig
from repro.core.flush_buffer import FlushBuffer
from repro.core.probe import ProbeEngine
from repro.errors import CapacityError
from repro.dram.bus import Direction
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator, ns

#: Controller-side latency to recognise and serve a flush-buffer hit.
FLUSH_HIT_LATENCY = ns(4)

# Enum members read per access, as module globals (see controller.py).
_READ = Op.READ
_ACT_RD = OpKind.ACT_RD
_ACT_WR = OpKind.ACT_WR
_MISS_DIRTY = Outcome.MISS_DIRTY


class TdramCache(DramCacheController):
    """Tag-enhanced DRAM cache with probing and a flush buffer."""

    design_name = "tdram"
    burst_bytes = 64
    has_tag_path = True

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        super().__init__(sim, config, main_memory)
        self.flush = FlushBuffer(config.flush_buffer_entries)
        if self.trace is not None:
            self.flush.obs_sink = self.trace.on_flush_level
        self.probe_engine = ProbeEngine()
        opportunistic = config.flush_unload_policy == "opportunistic"
        self.unload_on_refresh = opportunistic
        self.unload_on_read_miss_clean = opportunistic
        #: per-channel, per-bank time until which a probe holds the tag bank
        self._probe_busy_until = [
            [0] * len(channel.banks) for channel in self.channels
        ]
        #: per-channel flag: a deferred probe attempt is already scheduled
        self._probe_retry_pending = [False] * len(self.channels)
        #: wait before a deferred probe attempt
        self._probe_retry_delay = config.tag_timing.tRRD_TAG * 2
        #: (channel, bank, hold-end) probe conflicts already counted
        self._counted_conflicts = set()
        for channel in self.channels:
            channel.refresh_listeners.append(self._on_refresh)

    # ------------------------------------------------------------------
    # Demand intake
    # ------------------------------------------------------------------
    def _enqueue(self, request: DemandRequest) -> None:
        channel_idx, bank = self.route(request.block_addr)
        if request.op is _READ:
            if self.flush.contains(request.block_addr):
                self._serve_from_flush_buffer(channel_idx, request)
                return
            op = CacheOp(_ACT_RD, request.block_addr, bank,
                         self.sim.now, demand=request)
            self.schedulers[channel_idx].push_read(op)
            return
        # Write demand: a newer full-line write supersedes any buffered
        # dirty copy of the same block (§III-D2).
        self.flush.remove(request.block_addr)
        op = CacheOp(_ACT_WR, request.block_addr, bank,
                     self.sim.now, demand=request)
        try:
            self.schedulers[channel_idx].push_write(op)
        except CapacityError:
            # Racing acceptance checks can overfill; absorb the demand
            # with counted backpressure rather than dropping it.
            self.metrics.events.add("write_backpressure_forced")
            self.schedulers[channel_idx].push_write(op, forced=True)

    def _serve_from_flush_buffer(self, channel_idx: int,
                                 request: DemandRequest) -> None:
        """Read demand to a buffered victim: stream it from the buffer.

        The controller mirrors buffer addresses, so the tag outcome is
        known immediately; the data rides one explicit DQ read grant.
        The entry stays buffered — it is still dirty w.r.t. main memory.
        """
        now = self.sim.now
        self.metrics.events.add("flush_buffer_read_hit")
        self._record_tag_result(request, now, Outcome.HIT_DIRTY)
        end = self.channels[channel_idx].transfer_raw(
            now + FLUSH_HIT_LATENCY, 64, Direction.READ)
        self.metrics.ledger.move("flush_buffer_hit", 64, useful=True)
        self.sim.at(end, self._complete_read, request, end)

    # ------------------------------------------------------------------
    # Scheduling hooks
    # ------------------------------------------------------------------
    def _hm_delay(self) -> Optional[int]:
        """Issue-to-HM-result delay (None = device default: activation
        path, ``tRCD_TAG + tHM``)."""
        return None

    def _earliest_op(self, channel_idx: int, op: CacheOp, now: int) -> int:
        is_write = op.kind is _ACT_WR
        channel = self.channels[channel_idx]
        earliest = channel.earliest_issue(op.bank, now, is_write, with_tag=True)
        probe_hold = self._probe_busy_until[channel_idx][op.bank]
        if probe_hold > now and probe_hold > channel.banks[op.bank].ready_at:
            # Each probe's hold is counted as a conflict at most once.
            key = (channel_idx, op.bank, probe_hold)
            if key not in self._counted_conflicts:
                self._counted_conflicts.add(key)
                self.probe_engine.record_bank_conflict()
        return earliest

    def _commit_op(self, channel_idx: int, op: CacheOp, now: int) -> None:
        kind = op.kind
        if kind is _ACT_RD:
            self._commit_act_rd(channel_idx, op, now)
        elif kind is _ACT_WR:
            self._commit_act_wr(channel_idx, op, now)
        else:  # pragma: no cover
            raise AssertionError(f"unexpected op kind {op.kind}")

    # ------------------------------------------------------------------
    # ActRd
    # ------------------------------------------------------------------
    def _commit_act_rd(self, channel_idx: int, op: CacheOp, now: int) -> None:
        demand = op.demand
        if op.victim_block is not None:
            self._commit_victim_readout(channel_idx, op, now)
            return
        assert demand is not None
        self._record_queue_delay(demand, now)
        result = self.tags.probe(demand.block_addr, touch=True)
        outcome = result.outcome
        streams_data = outcome.is_hit or outcome is _MISS_DIRTY
        grant = self._access(
            channel_idx, op.bank, now, is_write=False, with_data=True,
            with_tag=True, hm_result_delay=self._hm_delay(),
            column_op=self._column_op_happens(streams_data),
            transfer=streams_data,
        )
        assert grant.hm_at is not None and grant.data_end is not None
        hm_at, data_start, data_end = grant.hm_at, grant.data_start, grant.data_end
        already_recorded = demand.tag_result_time >= 0
        if not already_recorded:
            self._record_tag_result(demand, hm_at, outcome)
        if outcome.is_hit:
            self.metrics.ledger.move("hit_data", 64, useful=True)
            if self.trace is not None and data_start is not None:
                self.trace.on_dq_window(demand, data_start, data_end)
            self.sim.at(data_end, self._complete_read, demand, data_end)
            return
        if outcome is _MISS_DIRTY:
            assert result.victim_block is not None
            victim = result.victim_block
            self.metrics.ledger.move("victim_readout", 64, useful=False)
            self.tags.invalidate(victim)
            self.sim.at(data_end, self._writeback, victim)
            self.sim.at(hm_at, self._fetch, demand.block_addr, demand)
            return
        # Miss to clean/invalid: no data drives; the reserved DQ slot can
        # carry one flush-buffer entry out instead (§III-D2).
        self.sim.at(hm_at, self._fetch, demand.block_addr, demand)
        assert data_start is not None
        self._unload_in_read_slot(channel_idx, data_start, data_end)

    def _column_op_happens(self, streams_data: bool) -> bool:
        """TDRAM gates the data-bank column decode on the tag result."""
        return streams_data

    def _commit_victim_readout(self, channel_idx: int, op: CacheOp,
                               now: int) -> None:
        """MAIN slot for a probe-detected dirty miss: stream the victim."""
        victim = op.victim_block
        assert victim is not None
        grant = self._access(
            channel_idx, op.bank, now, is_write=False, with_data=True,
            with_tag=True, hm_result_delay=self._hm_delay(),
        )
        assert grant.data_end is not None
        self.metrics.ledger.move("victim_readout", 64, useful=False)
        self.sim.at(grant.data_end, self._writeback, victim)

    def _unload_in_read_slot(self, channel_idx: int, slot_start: int,
                             slot_end: int) -> None:
        if not self.unload_on_read_miss_clean:
            return
        block = self.flush.pop()
        if block is None:
            return
        self.flush.note_unload("read_miss_clean")
        self.meter.add_dq_bytes(64)
        self.metrics.ledger.move("flush_unload", 64, useful=False)
        if self.trace is not None:
            self.trace.on_flush_drain("read_miss_clean", block,
                                      slot_start, slot_end)
        self.sim.at(slot_end, self._writeback, block)

    # ------------------------------------------------------------------
    # ActWr
    # ------------------------------------------------------------------
    def _commit_act_wr(self, channel_idx: int, op: CacheOp, now: int) -> None:
        grant = self._access(
            channel_idx, op.bank, now, is_write=True, with_data=True,
            with_tag=True, hm_result_delay=self._hm_delay(),
        )
        assert grant.hm_at is not None
        if op.is_fill:
            self.metrics.ledger.move("fill", 64, useful=False)
            return
        demand = op.demand
        assert demand is not None
        if self.trace is not None:
            self.trace.on_issue(demand, now)
        result = self.tags.probe(demand.block_addr, touch=False)
        self._record_tag_result(demand, grant.hm_at, result.outcome)
        if (self.trace is not None and grant.data_start is not None
                and grant.data_end is not None):
            self.trace.on_dq_window(demand, grant.data_start, grant.data_end)
        self.metrics.ledger.move("demand_write", 64, useful=True)
        evicted = self.tags.install(demand.block_addr, dirty=True)
        if evicted is not None and evicted[1]:
            # Internal read moves the dirty victim into the flush buffer
            # (small internal turnaround; no DQ activity, §III-D2).
            self.meter.record("col_op")
            self.metrics.events.add("victim_to_flush_buffer")
            self._add_to_flush_buffer(channel_idx, evicted[0], grant.hm_at)

    def _add_to_flush_buffer(self, channel_idx: int, block: int,
                             time: int) -> None:
        if not self.flush.add(block):
            self._forced_drain(channel_idx, time)
            self.flush.add(block)

    def _forced_drain(self, channel_idx: int, time: int) -> None:
        """Explicit read-from-flush-buffer commands: drain half the
        buffer in one grouped read burst (one amortised turnaround)."""
        self.metrics.events.add("flush_forced_drain")
        count = max(1, self.flush.capacity // 2)
        channel = self.channels[channel_idx]
        for _ in range(count):
            block = self.flush.pop()
            if block is None:
                break
            self.flush.note_unload("forced")
            end = channel.transfer_raw(time, 64, Direction.READ)
            self.metrics.ledger.move("flush_unload", 64, useful=False)
            if self.trace is not None:
                self.trace.on_flush_drain("forced", block, time, end)
            self.sim.at(end, self._writeback, block)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def _fill_op_kind(self) -> OpKind:
        return _ACT_WR

    def _handle_fill_eviction(self, victim_block: int, time: int) -> None:
        """A fill displaced dirty data: it goes to the flush buffer
        in-DRAM rather than across the DQ bus."""
        channel_idx, _bank = self.route(victim_block)
        self.meter.record("col_op")
        self.metrics.events.add("victim_to_flush_buffer")
        self._add_to_flush_buffer(channel_idx, victim_block, time)

    # ------------------------------------------------------------------
    # Early tag probing (§III-E)
    # ------------------------------------------------------------------
    def _blocked_work(self, channel_idx: int) -> Optional[Callable[[int], None]]:
        """Early tag probes while the channel waits, if probing is on."""
        if not self.config.enable_probing:
            return None
        return partial(self._on_blocked, channel_idx)

    def _on_blocked(self, channel_idx: int, now: int) -> None:
        channel = self.channels[channel_idx]
        read_q = self.schedulers[channel_idx].read_q
        op = self.probe_engine.select(channel, read_q, now)
        if op is None:
            # Candidates may exist whose tag bank / CA / HM slot is
            # momentarily busy: retry shortly (probe windows open and
            # close between MAIN commands).
            if not self._probe_retry_pending[channel_idx]:
                for queued in read_q:
                    demand = queued.demand
                    if (demand is not None and demand.op is _READ
                            and not demand.probed):
                        self._probe_retry_pending[channel_idx] = True
                        self.sim.at(self.sim.now + self._probe_retry_delay,
                                    self._probe_retry, channel_idx)
                        break
            return
        demand = op.demand
        assert demand is not None
        grant = channel.issue_probe(op.bank, now)
        self.probe_engine.record_issue()
        demand.probed = True
        self._record_queue_delay(demand, now)
        tag_timing = self.config.tag_timing
        self._probe_busy_until[channel_idx][op.bank] = now + tag_timing.tRC_TAG
        assert grant.hm_at is not None
        hm_at = grant.hm_at
        if self.trace is not None:
            self.trace.on_probe(demand, now, hm_at)
            self.trace.on_hm_result(channel_idx, hm_at)
        self.sim.at(hm_at, self._on_probe_result, channel_idx, op, hm_at)
        # The CA bus frees after one command slot; chain another probe
        # attempt so every unused slot can be filled (§III-E).
        free_at = channel.ca.free_at
        self.sim.at(free_at, self._on_blocked, channel_idx, free_at)

    def _probe_retry(self, channel_idx: int) -> None:
        self._probe_retry_pending[channel_idx] = False
        self._on_blocked(channel_idx, self.sim.now)

    def _on_probe_result(self, channel_idx: int, op: CacheOp, time: int) -> None:
        demand = op.demand
        assert demand is not None
        if demand.tag_result_time >= 0:
            # The MAIN slot beat the probe result; nothing to do.
            self.probe_engine.stats.add("wasted")
            return
        result = self.tags.probe(demand.block_addr, touch=False)
        outcome = result.outcome
        self._record_tag_result(demand, time, outcome)
        scheduler = self.schedulers[channel_idx]
        if outcome.is_hit:
            self.metrics.events.add("probe_hit")
            return  # stays queued; its MAIN ActRd streams the data
        if outcome is _MISS_DIRTY:
            self.metrics.events.add("probe_miss_dirty")
            assert result.victim_block is not None
            self.tags.invalidate(result.victim_block)
            op.victim_block = result.victim_block
            op.demand = None
            self._fetch(demand.block_addr, demand)
            return  # stays queued to stream the victim out
        # Miss to clean/invalid: the demand leaves the read queue right
        # now and the main-memory fetch starts immediately.
        self.metrics.events.add("probe_miss_clean")
        if op in scheduler.read_q:
            scheduler.remove_read(op)
        self._fetch(demand.block_addr, demand)
        scheduler.kick()

    # ------------------------------------------------------------------
    # Refresh-window unloads (§III-D2 case i)
    # ------------------------------------------------------------------
    def _on_refresh(self, start: int, end: int) -> None:
        if not self.unload_on_refresh or len(self.flush) == 0:
            return
        # Refresh blocks the banks; the DQ bus idles, so buffered
        # victims stream out back to back.
        burst = self.config.cache_timing.tBURST
        slots = max(0, (end - start) // max(1, burst))
        for i in range(slots):
            block = self.flush.pop()
            if block is None:
                break
            self.flush.note_unload("refresh")
            self.meter.add_dq_bytes(64)
            self.metrics.ledger.move("flush_unload", 64, useful=False)
            if self.trace is not None:
                self.trace.on_flush_drain("refresh", block,
                                          start + i * burst,
                                          start + (i + 1) * burst)
            self.sim.at(end, self._writeback, block)
