"""TDRAM's on-die flush buffer (§III-D2).

On a write-miss-dirty, the conflicting dirty line is read into this
buffer *inside the DRAM* (a small internal read-to-write turnaround)
instead of being streamed to the controller, which would force a full
DQ-bus write->read->write turnaround in the middle of a write burst.

Entries leave the buffer opportunistically:

* ``read_miss_clean`` — a read miss to a clean line leaves its DQ slot
  unused; one entry rides out in it;
* ``refresh`` — the DQ bus idles while banks refresh;
* ``forced`` — the buffer filled up and the controller issued explicit
  read-from-flush-buffer commands (counted as a stall).

The controller mirrors the buffer's addresses (the paper's "global
knowledge"), so demands to buffered lines are serviced coherently.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.stats.counters import CounterSet, OccupancyStat


class FlushBuffer:
    """Bounded FIFO of dirty victim blocks awaiting writeback."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("flush buffer capacity must be positive")
        self.capacity = capacity
        self._entries: List[int] = []
        self.events = CounterSet()
        self.occupancy = OccupancyStat("flush_buffer")
        self.stalls = 0
        #: block -> flipped-bit count from a fault campaign (repro.ras);
        #: entries are SECDED-protected like any SRAM queue, so one bit
        #: corrects on the way out and two or more drop the writeback.
        self._faults: Dict[int, int] = {}
        #: RAS counter sink (a CounterSet), attached by RasManager
        self.ras_counters: Optional[CounterSet] = None
        #: observability sink called with the occupancy after every
        #: mutation (attached by ObsSession when tracing is on)
        self.obs_sink = None

    def _notify_obs(self) -> None:
        if self.obs_sink is not None:
            self.obs_sink(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """Whether every entry is taken (the next ``add`` stalls)."""
        return len(self._entries) >= self.capacity

    def contains(self, block: int) -> bool:
        """Whether ``block``'s dirty victim is buffered."""
        return block in self._entries

    def add(self, block: int) -> bool:
        """Insert a dirty victim; returns False when full (stall).

        The caller must drain before retrying on a False return; the
        paper sizes the buffer (16) so this "virtually never" happens
        (§V-E counts 13 stalls in the worst workload at size 8).
        """
        self.occupancy.sample(len(self._entries))
        if self.is_full:
            self.stalls += 1
            self.events.add("stall_full")
            return False
        self._entries.append(block)
        self._faults.pop(block, None)
        self.events.add("insert")
        self._notify_obs()
        return True

    def pop(self) -> Optional[int]:
        """Remove the oldest *intact* entry (None when empty).

        Entries carrying an injected double-bit fault are detected on
        readout and dropped — the writeback is lost (counted as RAS
        data loss) and the next entry is tried. A single-bit fault is
        corrected in flight and the entry leaves normally.
        """
        while self._entries:
            block = self._entries.pop(0)
            self._notify_obs()
            bits = self._faults.pop(block, 0)
            if bits == 0:
                return block
            if bits == 1:
                self.events.add("ecc_corrected")
                if self.ras_counters is not None:
                    self.ras_counters.add("flush_corrected")
                return block
            # >= 2 flipped bits: detected, uncorrectable — the dirty
            # data never reaches main memory.
            self.events.add("ecc_dropped")
            if self.ras_counters is not None:
                self.ras_counters.add("flush_uncorrectable")
                self.ras_counters.add("flush_data_loss")
        return None

    def remove(self, block: int) -> bool:
        """Drop a superseded entry (a newer write to the same block)."""
        if block in self._entries:
            self._entries.remove(block)
            self._faults.pop(block, None)
            self.events.add("superseded")
            self._notify_obs()
            return True
        return False

    def inject_fault(self, index: int, bits: int) -> None:
        """Flip ``bits`` bits in the entry at ``index`` (fault campaign)."""
        block = self._entries[index]
        self._faults[block] = self._faults.get(block, 0) + bits

    def note_unload(self, reason: str) -> None:
        """Account an entry leaving over DQ (`read_miss_clean`,
        `refresh`, or `forced`)."""
        self.events.add(f"unload_{reason}")
