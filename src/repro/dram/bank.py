"""Bank and activation-window state machines.

With a close-page policy every access is activate + column + auto-
precharge, so a bank is fully described by the earliest time its next
activate may begin. Rolling activate constraints (tRRD between any two
activates, at most ``activates_per_window`` activates per tXAW window —
Table III) live in :class:`ActivationWindow`, shared per channel.

Each resource keeps its floor — the earliest instant its next grant may
start — as a plain attribute that only its own mutators move, so the
issue planner reads floors instead of recomputing them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import ProtocolError


class Bank:
    """One (logical, pair-scheduled) DRAM bank.

    Under the close-page policy (the DRAM cache, Table III) only
    ``ready_at`` matters. Under the open-page policy (the DDR5 backing
    store) the bank additionally tracks its open row, when it was
    activated (tRAS gates the next precharge), and the write-recovery
    horizon (tWR gates precharge after a write burst).
    """

    def __init__(self, index: int) -> None:
        self.index = index
        #: earliest time the next activate to this bank may issue; moved
        #: only by :meth:`reserve`, :meth:`block_until` and :meth:`set_ready`
        self.ready_at = 0
        self.accesses = 0
        self.busy_time = 0
        # Open-page state
        self.open_row: int = -1          #: -1 = precharged / no open row
        self.activated_at = 0            #: last ACT time (tRAS accounting)
        self.precharge_not_before = 0    #: max(act+tRAS, write_end+tWR)

    def reserve(self, start: int, busy: int) -> int:
        """Occupy the bank for one access; returns when it frees."""
        if start < self.ready_at:
            raise ProtocolError(
                f"bank {self.index}: activate at {start} before ready ({self.ready_at})"
            )
        if busy <= 0:
            raise ProtocolError(f"bank {self.index}: non-positive busy time {busy}")
        self.ready_at = start + busy
        self.accesses += 1
        self.busy_time += busy
        return self.ready_at

    def block_until(self, time: int) -> None:
        """Push readiness out (used by the refresh engine)."""
        self.ready_at = max(self.ready_at, time)

    def close_row(self) -> None:
        """Precharge bookkeeping (refresh closes every row)."""
        self.open_row = -1

    def set_ready(self, time: int, accesses: int = 1) -> None:
        """Open-page bookkeeping: next command to this bank at ``time``."""
        if time > self.ready_at:
            self.busy_time += time - max(self.ready_at, self.activated_at)
            self.ready_at = time
        self.accesses += accesses


class ActivationWindow:
    """Rolling tRRD / tXAW (``activates_per_window``-activate window)
    constraint tracker."""

    def __init__(self, t_rrd: int, t_xaw: int, activates_per_window: int = 4) -> None:
        if activates_per_window < 1:
            raise ProtocolError("activates_per_window must be >= 1")
        self.t_rrd = t_rrd
        self.t_xaw = t_xaw
        self.activates_per_window = activates_per_window
        self._recent: Deque[int] = deque(maxlen=activates_per_window)
        #: earliest legal next activate: the last one plus tRRD, raised
        #: to the oldest plus tXAW once the window is full; moved only
        #: by :meth:`record`
        self.floor = 0

    def record(self, at: int) -> None:
        """Record an activate issued at ``at``."""
        recent = self._recent
        if recent and at < recent[-1]:
            raise ProtocolError("activates must be recorded in time order")
        if at < self.floor:
            raise ProtocolError(f"activate at {at} violates tRRD/tXAW window")
        recent.append(at)
        floor = at + self.t_rrd
        if len(recent) == self.activates_per_window:
            oldest = recent[0] + self.t_xaw
            if oldest > floor:
                floor = oldest
        self.floor = floor
