"""Channel observers: command logging and protocol checking.

A :class:`ChannelObserver` attached to a :class:`~repro.dram.device.
DramChannel` sees every committed command. Two implementations ship:

* :class:`CommandLog` — a bounded in-memory log of (time, command,
  bank, data window) records with per-command counters; the basis for
  waveform-style debugging (`render_timeline`) and utilisation reports.
* :class:`ProtocolChecker` — revalidates invariants the resource model
  should already guarantee (monotonic CA grants, per-bank activate
  spacing, non-overlapping same-direction DQ windows); used by the
  stress tests to catch modelling regressions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.sim.kernel import to_ns
from repro.stats.counters import CounterSet


@dataclass(frozen=True)
class CommandRecord:
    """One committed channel command."""

    time_ps: int
    command: str           #: "act_rd" | "act_wr" | "read" | "write" |
    #: "probe" | "refresh" | "raw_read" | "raw_write"
    bank: int              #: -1 for channel-wide events (refresh, raw)
    data_start: Optional[int] = None
    data_end: Optional[int] = None

    @property
    def time_ns(self) -> float:
        """Command time in nanoseconds."""
        return to_ns(self.time_ps)


class ChannelObserver(abc.ABC):
    """Interface: override :meth:`on_command`."""

    @abc.abstractmethod
    def on_command(self, record: CommandRecord) -> None:
        """Observe one committed channel command."""


class CommandLog(ChannelObserver):
    """Bounded command log with per-command counters."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ProtocolError("log capacity must be positive")
        self.capacity = capacity
        self.records: List[CommandRecord] = []
        self.dropped = 0
        self.counts = CounterSet()

    def on_command(self, record: CommandRecord) -> None:
        """Count the command and keep it while the log has room."""
        self.counts.add(record.command)
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.dropped += 1

    def between(self, start_ps: int, end_ps: int) -> List[CommandRecord]:
        """Logged commands issued in ``[start_ps, end_ps)``."""
        return [r for r in self.records if start_ps <= r.time_ps < end_ps]

    def render_timeline(self, start_ps: int, end_ps: int,
                        resolution_ps: int = 1000) -> str:
        """A text timeline: one row per bank, one column per time slot."""
        if resolution_ps <= 0 or end_ps <= start_ps:
            raise ProtocolError("bad timeline window")
        window = self.between(start_ps, end_ps)
        banks = sorted({r.bank for r in window})
        slots = (end_ps - start_ps + resolution_ps - 1) // resolution_ps
        symbol = {"act_rd": "R", "act_wr": "W", "read": "r", "write": "w",
                  "probe": "p", "refresh": "F", "raw_read": "u",
                  "raw_write": "v"}
        lines = []
        for bank in banks:
            row = ["."] * slots
            for record in window:
                if record.bank != bank:
                    continue
                slot = (record.time_ps - start_ps) // resolution_ps
                row[slot] = symbol.get(record.command, "?")
            label = f"bank {bank:>3}" if bank >= 0 else "channel "
            lines.append(f"{label} |{''.join(row)}|")
        return "\n".join(lines)


class ProtocolChecker(ChannelObserver):
    """Re-validates command-stream invariants as commands commit.

    Intended for **close-page** channels (the DRAM cache), where every
    column command implies an activate, so per-bank command spacing
    must respect tRC. Attach to open-page channels only with ``t_rc=0``.
    """

    def __init__(self, t_rc: int, t_cmd: int) -> None:
        self.t_rc = t_rc
        self.t_cmd = t_cmd
        self._last_cmd_time: Optional[int] = None
        self._last_activate: Dict[int, int] = {}
        self.commands_checked = 0

    def on_command(self, record: CommandRecord) -> None:
        """Check the command's CA order, per-bank tRC spacing and data
        window; raise :class:`ProtocolError` on a violation."""
        self.commands_checked += 1
        if record.command in ("act_rd", "act_wr", "read", "write", "probe"):
            if (self._last_cmd_time is not None
                    and record.time_ps < self._last_cmd_time):
                raise ProtocolError(
                    f"CA command at {record.time_ps} before previous "
                    f"{self._last_cmd_time}"
                )
            self._last_cmd_time = record.time_ps
        if record.command in ("act_rd", "act_wr", "read", "write") \
                and record.bank >= 0 and self.t_rc > 0:
            last = self._last_activate.get(record.bank)
            if last is not None and record.time_ps - last < self.t_rc:
                raise ProtocolError(
                    f"bank {record.bank}: activates {to_ns(record.time_ps - last)} ns "
                    f"apart (tRC {to_ns(self.t_rc)} ns)"
                )
            self._last_activate[record.bank] = record.time_ps
        if record.data_start is not None and record.data_end is not None:
            if record.data_end <= record.data_start:
                raise ProtocolError("empty or inverted data window")
