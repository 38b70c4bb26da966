"""No-DRAM-cache baseline: every demand goes straight to main memory.

Figure 12 normalises every design against this system; the paper's
headline observation is that Cascade Lake/Alloy/BEAR *slow down* large
workloads relative to it, while NDC and TDRAM speed them up.
"""

from __future__ import annotations

from functools import partial

from repro.cache.metrics import CacheMetrics
from repro.cache.request import DemandRequest, Op
from repro.config.system import SystemConfig
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator

# Read per demand, as a module global (see repro.cache.controller).
_READ = Op.READ


class NoCacheSystem:
    """Front-end-compatible shim that bypasses the DRAM cache entirely."""

    design_name = "no_cache"
    has_tag_path = False

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        self.sim = sim
        self.config = config
        self.main_memory = main_memory
        self.metrics = CacheMetrics()
        self.meter = None  # all energy is accounted by the main memory
        #: crude in-flight bounds mirroring the controller's buffers
        self._inflight_reads = 0
        self._read_capacity = config.read_buffer_entries * config.mm_channels
        self._write_capacity = config.write_buffer_entries * config.mm_channels

    def can_accept(self, op: Op, block: int) -> bool:
        if op is _READ:
            return self._inflight_reads < self._read_capacity
        return self.main_memory.pending_writes() < self._write_capacity

    def submit(self, request: DemandRequest) -> None:
        request.arrive_time = self.sim.now
        if request.op is _READ:
            self._inflight_reads += 1
            self.main_memory.read(
                request.block_addr, partial(self._on_read_done, request),
            )
        else:
            self.main_memory.write(request.block_addr)

    def _on_read_done(self, request: DemandRequest, time: int) -> None:
        self._inflight_reads -= 1
        self.metrics.read_latency.record(time - request.arrive_time)
        request.complete(time)

    def pending_ops(self) -> int:
        return self.main_memory.pending()
