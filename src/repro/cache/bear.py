"""BEAR cache [28]: Alloy plus bandwidth-bloat mitigations.

BEAR coordinates the LLC and the DRAM cache: the LLC tracks a "present
in DRAM cache" bit, so **writebacks that hit skip the tag-check read
entirely** (§II-A, §II-B.2). Read misses still pay the tag-check read,
and the 80 B TAD granularity still inflates every remaining transfer —
which is why BEAR lands between Alloy and TDRAM in Figures 3/9-13.
"""

from __future__ import annotations

from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.controller import CacheOp, OpKind
from repro.cache.request import DemandRequest, Op
from repro.config.system import SystemConfig
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator
from repro.sim.rng import Pcg64


class BearCache(CascadeLakeCache):
    """BEAR: Alloy with write-hit bypass and bandwidth-aware fills."""

    design_name = "bear"
    burst_bytes = 80
    #: Bandwidth-Aware Bypass: fraction of read-miss fills skipped (the
    #: BEAR paper's BAB policy converges on bypassing ~90 % of fills
    #: with negligible hit-rate loss on low-reuse workloads; a fixed
    #: moderate rate keeps the model simple and the bloat in range).
    fill_bypass_probability = 0.5

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        super().__init__(sim, config, main_memory)
        self._bypass_rng = Pcg64(0xBEA12)

    def _skip_fill(self) -> bool:
        """Bandwidth-Aware Bypass: skip a seeded share of the fills."""
        if self._bypass_rng.random() < self.fill_bypass_probability:
            self.metrics.events.add("fill_bypass")
            return True
        return False

    def _enqueue(self, request: DemandRequest) -> None:
        if request.op is Op.WRITE:
            result = self.tags.probe(request.block_addr, touch=False)
            if result.outcome.is_hit:
                # The LLC's presence bit answers the tag check for free.
                self._record_tag_result(request, self.sim.now, result.outcome)
                self.metrics.events.add("write_hit_bypass")
                self.tags.install(request.block_addr, dirty=True)
                channel, bank = self.route(request.block_addr)
                op = CacheOp(OpKind.DATA_WRITE, request.block_addr, bank,
                             self.sim.now)
                self.schedulers[channel].push_write(op, forced=True)
                return
        super()._enqueue(request)
