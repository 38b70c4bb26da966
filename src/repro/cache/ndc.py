"""NDC — Native DRAM Cache [60] (ISCA 2024), the closest prior design.

Like TDRAM, NDC keeps tags in the DRAM and compares them there, moving
the same number of bytes per demand (Table IV shows identical bloat).
The differences the paper calls out (§VI) and that this model captures:

* **No early tag probing** — the hit/miss indication is tied to the
  RD/WR command itself, so requests sit in the controller queues until
  their MAIN slot (longer queue occupancy -> Fig 9/10 gap vs TDRAM).
* **Result during the column operation** — the hit/miss is produced by
  NDC's CAM-like sensing during the column access, a little later than
  TDRAM's activation-time compare, and the data-bank column operation
  always executes (slight energy cost; same DQ traffic).
* **Victim buffer drained by an explicit ``RES`` command** — unloading
  requires read-direction grants that bubble the DQ bus between write
  bursts, instead of TDRAM's free read-miss-clean/refresh slots.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.tdram import TdramCache
from repro.config.system import SystemConfig
from repro.dram.bus import Direction
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator


class NdcCache(TdramCache):
    """Native DRAM Cache: in-DRAM tags without probing or free unloads."""

    design_name = "ndc"

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        super().__init__(sim, config, main_memory)
        self.unload_on_refresh = False
        self.unload_on_read_miss_clean = False
        #: RES fires once the victim buffer is half full
        self.res_threshold = max(1, config.flush_buffer_entries // 2)

    def _blocked_work(self, channel_idx: int) -> Optional[Callable[[int], None]]:
        """NDC has no early tag probing: blocked channels do nothing."""
        return None

    def _hm_delay(self) -> int:
        """NDC's result appears during the column operation."""
        timing = self.config.cache_timing
        tag = self.config.tag_timing
        return timing.tRCD + timing.tCCD_L + tag.tHM_int

    def _column_op_happens(self, streams_data: bool) -> bool:
        """NDC always performs the data-bank column operation (§VI)."""
        return True

    def _add_to_flush_buffer(self, channel_idx: int, block: int,
                             time: int) -> None:
        super()._add_to_flush_buffer(channel_idx, block, time)
        if len(self.flush) >= self.res_threshold:
            self._res_drain(channel_idx, time)

    def _res_drain(self, channel_idx: int, time: int) -> None:
        """Explicit RES commands: drain the buffer with read grants.

        These force the DQ bus into the read direction in the middle of
        write traffic — the turnaround bubble TDRAM avoids (§VI).
        """
        self.metrics.events.add("res_drain")
        channel = self.channels[channel_idx]
        while True:
            block = self.flush.pop()
            if block is None:
                break
            self.flush.note_unload("forced")
            end = channel.transfer_raw(time, 64, Direction.READ)
            self.metrics.ledger.move("flush_unload", 64, useful=False)
            self.sim.at(end, self._writeback, block)
