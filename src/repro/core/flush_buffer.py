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

from typing import List, Optional

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
        #: observability sink called with the occupancy after every
        #: mutation (TDRAM attaches its tracer's when tracing is on)
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
        self.events.add("insert")
        self._notify_obs()
        return True

    def pop(self) -> Optional[int]:
        """Remove and return the oldest entry (None when empty)."""
        if not self._entries:
            return None
        block = self._entries.pop(0)
        self._notify_obs()
        return block

    def remove(self, block: int) -> bool:
        """Drop a superseded entry (a newer write to the same block)."""
        if block in self._entries:
            self._entries.remove(block)
            self.events.add("superseded")
            self._notify_obs()
            return True
        return False

    def note_unload(self, reason: str) -> None:
        """Account an entry leaving over DQ (`read_miss_clean`,
        `refresh`, or `forced`)."""
        self.events.add(f"unload_{reason}")
