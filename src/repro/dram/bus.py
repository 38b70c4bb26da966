"""Bus models: command/address (CA), data (DQ), and hit-miss (HM) buses.

Buses are modelled as monotonic reservation resources: each grant starts
at or after the end of the previous grant (plus a direction-turnaround
gap on the bidirectional DQ bus). This is exact for an in-order
command stream with fixed data offsets, which is how close-page
FR-FCFS controllers drive DRAM. Each bus keeps the earliest start of
its next grant as a plain attribute (``free_at``; on DQ also
``read_floor``/``write_floor``, which include the turnaround gap), and
only the bus's own reserve methods move it.

The DQ model also records *idle read-direction gaps*: these are the
"unused DQ slots" TDRAM exploits for opportunistic flush-buffer unloads
(§III-D2) and that the probe engine uses on the CA/HM side (§III-E).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import ProtocolError


class Direction(enum.Enum):
    """Transfer direction on the DQ bus, seen from the DRAM."""

    READ = "read"    # DRAM -> controller
    WRITE = "write"  # controller -> DRAM


# Read per DQ grant, as a module global (cheaper than ``Direction.READ``).
_READ = Direction.READ


class Bus:
    """A unidirectional bus (CA or HM): serial, no turnaround penalty."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: earliest time a new grant may begin; moved only by :meth:`reserve`
        self.free_at = 0
        self.busy_time = 0
        self.grants = 0

    def earliest(self, start: int) -> int:
        """Earliest grant start at or after ``start``."""
        return max(start, self.free_at)

    def reserve(self, start: int, duration: int) -> int:
        """Occupy the bus for ``[start, start + duration)``.

        Returns the end time. Grants must be non-overlapping and issued
        in nondecreasing start order (the controller guarantees this).
        """
        if duration < 0:
            raise ProtocolError(f"{self.name}: negative duration {duration}")
        if start < self.free_at:
            raise ProtocolError(
                f"{self.name}: grant at {start} overlaps previous (free at {self.free_at})"
            )
        self.free_at = start + duration
        self.busy_time += duration
        self.grants += 1
        return self.free_at


class DataBus(Bus):
    """The bidirectional DQ bus with read/write turnaround gaps.

    Switching direction inserts ``tRTW`` (read->write) or ``tWTR``
    (write->read) of dead time — the "costly turnaround bubbles"
    (§I, [17]) that TDRAM's flush buffer avoids for write-miss-dirty.
    """

    def __init__(self, name: str, t_rtw: int, t_wtr: int) -> None:
        super().__init__(name)
        self.t_rtw = t_rtw
        self.t_wtr = t_wtr
        self._last_direction: Optional[Direction] = None
        self.turnarounds = 0
        self.turnaround_time = 0
        #: earliest start of a read / a write grant: ``free_at`` plus the
        #: turnaround gap into that direction; moved only by
        #: :meth:`reserve_dir`
        self.read_floor = 0
        self.write_floor = 0

    def earliest_dir(self, start: int, direction: Direction) -> int:
        """Earliest start for a grant in ``direction`` at/after ``start``."""
        floor = self.read_floor if direction is _READ else self.write_floor
        return max(start, floor)

    def reserve_dir(self, start: int, duration: int, direction: Direction) -> int:
        """Occupy the bus in ``direction``; returns the end time."""
        is_read = direction is _READ
        floor = self.read_floor if is_read else self.write_floor
        gap = floor - self.free_at
        if start < floor:
            raise ProtocolError(
                f"{self.name}: grant at {start} violates turnaround "
                f"(free at {self.free_at}, gap {gap})"
            )
        if gap:
            self.turnarounds += 1
            self.turnaround_time += gap
        self._last_direction = direction
        end = super().reserve(start, duration)
        if is_read:
            self.read_floor = end
            self.write_floor = end + self.t_rtw
        else:
            self.write_floor = end
            self.read_floor = end + self.t_wtr
        return end

    def reserve(self, start: int, duration: int) -> int:  # pragma: no cover
        """Refused: every DQ grant has a direction (:meth:`reserve_dir`)."""
        raise ProtocolError("use reserve_dir() on the DQ bus")

    @property
    def last_direction(self) -> Optional[Direction]:
        """Direction of the latest grant (None before the first)."""
        return self._last_direction
