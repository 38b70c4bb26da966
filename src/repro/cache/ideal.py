"""Ideal cache: hit/miss and metadata known in zero time (§IV-A).

An upper bound for any tags-in-SRAM design: the controller resolves
the tag check the instant a demand arrives, pays no DRAM access for
tags, and never moves a useless byte. Data accesses (hit reads, demand
writes, fills, dirty-victim readouts) still cost real DRAM time.
"""

from __future__ import annotations

from repro.cache.controller import CacheOp, DramCacheController, OpKind
from repro.cache.request import DemandRequest, Op, Outcome

# Enum members read per access, as module globals (see controller.py).
_READ = Op.READ
_DATA_READ = OpKind.DATA_READ
_DATA_WRITE = OpKind.DATA_WRITE
_MISS_DIRTY = Outcome.MISS_DIRTY


class IdealCache(DramCacheController):
    """Zero-latency tag check; data accesses at normal DRAM timing."""

    design_name = "ideal"
    burst_bytes = 64
    has_tag_path = False

    def _enqueue(self, request: DemandRequest) -> None:
        now = self.sim.now
        channel_idx, bank = self.route(request.block_addr)
        scheduler = self.schedulers[channel_idx]
        if request.op is _READ:
            result = self.tags.probe(request.block_addr, touch=True)
            self._record_tag_result(request, now, result.outcome)
            if result.outcome.is_hit:
                op = CacheOp(_DATA_READ, request.block_addr, bank,
                             now, demand=request)
                scheduler.push_read(op)
                return
            if result.outcome is _MISS_DIRTY:
                assert result.victim_block is not None
                self._schedule_victim_readout(result.victim_block, now)
            request.issue_time = now  # no DRAM-cache read command needed
            self.metrics.read_queue_delay.record(0)
            self._fetch(request.block_addr, request)
            return
        result = self.tags.probe(request.block_addr, touch=False)
        self._record_tag_result(request, now, result.outcome)
        evicted = self.tags.install(request.block_addr, dirty=True)
        if evicted is not None and evicted[1]:
            self._schedule_victim_readout(evicted[0], now)
        op = CacheOp(_DATA_WRITE, request.block_addr, bank, now)
        scheduler.push_write(op, forced=True)

    def _schedule_victim_readout(self, victim_block: int, now: int) -> None:
        channel_idx, bank = self.route(victim_block)
        self.tags.invalidate(victim_block)
        op = CacheOp(_DATA_READ, victim_block, bank, now,
                     victim_block=victim_block)
        self.schedulers[channel_idx].push_read(op)

    # ------------------------------------------------------------------
    def _earliest_op(self, channel_idx: int, op: CacheOp, now: int) -> int:
        is_write = op.kind is _DATA_WRITE
        return self.channels[channel_idx].earliest_issue(op.bank, now, is_write)

    def _commit_op(self, channel_idx: int, op: CacheOp, now: int) -> None:
        kind = op.kind
        if kind is _DATA_READ:
            grant = self._access(channel_idx, op.bank, now, is_write=False,
                                 with_data=True)
            assert grant.data_end is not None
            data_end = grant.data_end
            if op.victim_block is not None:
                victim = op.victim_block
                self.metrics.ledger.move("victim_readout", 64, useful=False)
                self.sim.at(data_end, self._writeback, victim)
                return
            demand = op.demand
            assert demand is not None
            self._record_queue_delay(demand, now)
            self.metrics.ledger.move("hit_data", 64, useful=True)
            self.sim.at(data_end, self._complete_read, demand, data_end)
        elif kind is _DATA_WRITE:
            self._access(channel_idx, op.bank, now, is_write=True, with_data=True)
            if op.is_fill:
                self.metrics.ledger.move("fill", 64, useful=False)
            else:
                self.metrics.ledger.move("demand_write", 64, useful=True)
        else:  # pragma: no cover
            raise AssertionError(f"unexpected op kind {op.kind}")
