"""TicToc-style tag-cache + dirty-list DRAM cache (PAPERS.md, arXiv:1907.02184).

TicToc attacks the tag-serialization problem with two small on-die
SRAM structures instead of changing the DRAM array:

* an **SRAM tag cache** mirroring recently resolved tag entries — a
  hit means the controller already knows the lookup outcome and can go
  straight to the data access, skipping the DRAM tag read entirely;
* a **dirty-region list** counting dirty resident lines per region of
  cache sets — if the region covering an access's set holds no dirty
  line, neither the block (if resident, its copy equals memory) nor
  any would-be victim can be dirty, so the controller may *bypass* the
  DRAM tag probe: reads are served from main memory directly, writes
  install without the victim-readout tag fetch.

Only accesses that are both tag-cache misses *and* land in a dirty
region pay the full Cascade-Lake tag-read transaction (inherited
unchanged). The mirrors ride the replacement-policy seam
(:class:`~repro.cache.organization.TictocPolicy`): every install,
touch, dirty transition and eviction in the tag store updates them, so
a present tag-cache entry is always accurate and the dirty counts are
exact.
"""

from __future__ import annotations

from functools import partial

from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.controller import CacheOp, OpKind
from repro.cache.organization import (
    DirtyRegionList,
    SetAssociativeOrganization,
    SramTagCache,
    TictocPolicy,
)
from repro.cache.request import DemandRequest, Op
from repro.cache.tagstore import TagStore
from repro.config.system import SystemConfig
from repro.dram.address import DramGeometry
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator, ns


class TicTocCache(CascadeLakeCache):
    """Cascade-Lake array + SRAM tag cache + dirty-region bypass."""

    design_name = "tictoc"
    burst_bytes = 64
    has_tag_path = False

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        super().__init__(sim, config, main_memory)
        #: SRAM tag-cache lookup latency charged on short-circuited paths
        self._sram_ps = ns(config.tictoc_tag_latency_ns)

    def _build_tag_store(self, geometry: DramGeometry) -> TagStore:
        config = self.config
        organization = SetAssociativeOrganization(geometry.total_blocks,
                                                  config.cache_ways)
        self.tag_cache = SramTagCache(config.tictoc_tag_cache_entries)
        self.dirty_list = DirtyRegionList(config.tictoc_dirty_region_sets)
        policy = TictocPolicy(self.tag_cache, self.dirty_list,
                              organization.set_index)
        return TagStore(geometry.total_blocks, config.cache_ways,
                        organization=organization, policy=policy)

    # ------------------------------------------------------------------
    def _enqueue(self, request: DemandRequest) -> None:
        block = request.block_addr
        known = self.tag_cache.get(block)
        region_clean = not self.dirty_list.region_dirty(
            self.tags.set_index(block))
        if request.op is Op.READ:
            if known is not None:
                self._known_read(request)
                return
            if region_clean:
                self._bypass_read(request)
                return
            self.metrics.events.add("tictoc_tag_probes")
            super()._enqueue(request)
            return
        # Write demand: a known-resident block updates in place, and in
        # a clean region no victim needs reading out — either way the
        # tags-in-ECC read that CL performs first carries no information
        # the SRAM structures don't already have.
        if known is not None or region_clean:
            self._direct_write(request)
            return
        self.metrics.events.add("tictoc_tag_probes")
        super()._enqueue(request)

    def _known_read(self, demand: DemandRequest) -> None:
        """SRAM tag-cache hit: outcome known, go straight to data.

        The mirror is kept coherent on every tag-store change, so the
        probe below is always a hit.
        """
        result = self.tags.probe(demand.block_addr, touch=True)
        now = self.sim.now
        self.metrics.events.add("tictoc_tag_cache_hits")
        self._record_tag_result(demand, now + self._sram_ps, result.outcome)
        channel, bank = self.route(demand.block_addr)
        op = CacheOp(OpKind.DATA_READ, demand.block_addr, bank, now,
                     demand=demand)
        self.schedulers[channel].push_read(op)

    def _bypass_read(self, demand: DemandRequest) -> None:
        """Tag-cache miss in a clean region: skip the DRAM tag probe.

        A resident copy is necessarily clean, i.e. identical to main
        memory — so the read is served from main memory either way and
        the DRAM cache's tag bandwidth is never spent. (The functional
        probe below is the simulator learning the truth for metrics and
        recency; the modelled hardware never touches the DRAM tags.)
        """
        result = self.tags.probe(demand.block_addr, touch=True)
        self._record_tag_result(demand, self.sim.now + self._sram_ps,
                                result.outcome)
        if result.outcome.is_hit:
            self.metrics.events.add("tictoc_bypass_reads")
            self.main_memory.read(
                demand.block_addr,
                partial(self._on_bypass_return, demand),
                order=demand.seq,
            )
            return
        self._fetch(demand.block_addr, demand)

    def _on_bypass_return(self, demand: DemandRequest, time: int) -> None:
        self.metrics.ledger.move("mm_fetch", 64, useful=True)
        self._complete_read(demand, time)

    def _direct_write(self, demand: DemandRequest) -> None:
        """Write without the CL tag-read: SRAM already rules the victim."""
        block = demand.block_addr
        result = self.tags.probe(block, touch=False)
        self._record_tag_result(demand, self.sim.now + self._sram_ps,
                                result.outcome)
        evicted = self.tags.install(block, dirty=True)
        if evicted is not None and evicted[1]:
            # Only reachable when a stale region went dirty between the
            # check and the install — the books still balance.
            self._writeback(evicted[0])
        self.metrics.events.add("tictoc_direct_writes")
        channel, bank = self.route(block)
        op = CacheOp(OpKind.DATA_WRITE, block, bank, self.sim.now,
                     demand=demand)
        self.schedulers[channel].push_write(op, forced=True)

    # ------------------------------------------------------------------
    def _commit_op(self, channel_idx: int, op: CacheOp, now: int) -> None:
        if op.kind is OpKind.DATA_READ:
            assert op.demand is not None
            self._record_queue_delay(op.demand, now)
            grant = self._access(channel_idx, op.bank, now, is_write=False,
                                 with_data=True)
            assert grant.data_end is not None
            self.metrics.ledger.move("hit_data", 64, useful=True)
            self.sim.at(grant.data_end, self._complete_read, op.demand,
                        grant.data_end)
            return
        super()._commit_op(channel_idx, op, now)
