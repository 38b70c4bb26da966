"""Intel Cascade Lake style DRAM cache (the paper's baseline, §IV-A).

Block-granule, direct-mapped, insert-on-miss, with tags stored in the
spare ECC bits of the cache line's own DRAM row [37]. Consequences
modelled here (§II-B):

* **every** demand — read *or* write — begins with a DRAM read that
  retrieves tag+data together, so reads and writes compete in the same
  read buffer;
* the data fetched by that tag check is useful only on read hits and
  dirty-victim misses; everywhere else the controller discards it
  (bandwidth bloat);
* write demands then need a second, write-direction DRAM access,
  inserting DQ-bus turnarounds.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.controller import (
    CacheChannelScheduler,
    CacheOp,
    DramCacheController,
    OpKind,
)
from repro.cache.predictor import MapIPredictor
from repro.cache.request import DemandRequest, Op, Outcome
from repro.config.system import SystemConfig
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator

# Enum members read per access, as module globals (see controller.py).
_READ = Op.READ
_TAG_READ = OpKind.TAG_READ
_DATA_WRITE = OpKind.DATA_WRITE
_MISS_DIRTY = Outcome.MISS_DIRTY


class CascadeLakeCache(DramCacheController):
    """Tags-in-ECC-bits commercial DRAM cache (64 B bursts)."""

    design_name = "cascade_lake"
    burst_bytes = 64
    has_tag_path = False

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        super().__init__(sim, config, main_memory)
        self.predictor: Optional[MapIPredictor] = (
            MapIPredictor() if config.use_predictor else None
        )

    # ------------------------------------------------------------------
    def _can_accept_write(self, scheduler: CacheChannelScheduler) -> bool:
        # A write consumes a read-buffer slot (tag read) and later a
        # write-buffer slot (data write).
        return (len(scheduler.read_q) < scheduler.read_capacity
                and len(scheduler.write_q) < scheduler.write_capacity)

    def _enqueue(self, request: DemandRequest) -> None:
        if (
            self.predictor is not None
            and request.op is _READ
            and self.predictor.predict_miss(request.pc)
        ):
            # Speculative main-memory fetch in parallel with the tag
            # check (§V-D); a wrong prediction wastes the fetch.
            self.metrics.events.add("speculative_fetch")
            self._fetch(request.block_addr, request, waits=False)
        channel, bank = self.route(request.block_addr)
        op = CacheOp(_TAG_READ, request.block_addr, bank,
                     self.sim.now, demand=request)
        self.schedulers[channel].push_read(op)

    # ------------------------------------------------------------------
    def _earliest_op(self, channel_idx: int, op: CacheOp, now: int) -> int:
        is_write = op.kind is _DATA_WRITE
        return self.channels[channel_idx].earliest_issue(op.bank, now, is_write)

    def _commit_op(self, channel_idx: int, op: CacheOp, now: int) -> None:
        kind = op.kind
        if kind is _TAG_READ:
            assert op.demand is not None
            self._record_queue_delay(op.demand, now)
            grant = self._access(channel_idx, op.bank, now, is_write=False,
                                 with_data=True)
            assert grant.data_end is not None
            self.sim.at(grant.data_end, self._on_tag_data,
                        channel_idx, op.demand, grant.data_end)
        elif kind is _DATA_WRITE:
            self._access(channel_idx, op.bank, now, is_write=True, with_data=True)
            if op.is_fill:
                # Fills are caching overhead, not demand-serving bytes.
                self.metrics.ledger.move("fill", self.burst_bytes, useful=False)
            else:
                self.metrics.ledger.move_split(
                    "demand_write", 64, self.burst_bytes - 64)
        else:  # pragma: no cover - CL uses only the two kinds above
            raise AssertionError(f"unexpected op kind {op.kind}")

    # ------------------------------------------------------------------
    def _on_tag_data(self, channel_idx: int, demand: DemandRequest,
                     time: int) -> None:
        """Tag+data arrived at the controller: compare and act."""
        overhead = self.burst_bytes - 64
        if demand.op is _READ:
            result = self.tags.probe(demand.block_addr, touch=True)
            outcome = result.outcome
            self._record_tag_result(demand, time, outcome)
            if self.predictor is not None:
                self.predictor.update(demand.pc, outcome.is_hit)
            if outcome.is_hit:
                self.metrics.ledger.move_split("hit_data", 64, overhead)
                self._complete_read(demand, time)
                return
            if outcome is _MISS_DIRTY:
                assert result.victim_block is not None
                # The fetched data is the conflicting dirty line: it feeds
                # the writeback (necessary, but still caching overhead).
                self.metrics.ledger.move("victim_readout", self.burst_bytes,
                                         useful=False)
                self._writeback(result.victim_block)
                self.tags.invalidate(result.victim_block)
            else:
                self.metrics.ledger.move("tag_check_discard", self.burst_bytes,
                                         useful=False)
            self._fetch(demand.block_addr, demand)
            return
        # Write demand: the fetched data only matters for a dirty victim.
        result = self.tags.probe(demand.block_addr, touch=False)
        self._record_tag_result(demand, time, result.outcome)
        if result.outcome is _MISS_DIRTY:
            self.metrics.ledger.move("victim_readout", self.burst_bytes,
                                     useful=False)
        else:
            self.metrics.ledger.move("tag_check_discard", self.burst_bytes,
                                     useful=False)
        evicted = self.tags.install(demand.block_addr, dirty=True)
        if evicted is not None and evicted[1]:
            self._writeback(evicted[0])
        channel, bank = self.route(demand.block_addr)
        write_op = CacheOp(_DATA_WRITE, demand.block_addr, bank, time)
        self.schedulers[channel].push_write(write_op, forced=True)
