"""One DRAM channel's issue loop: a read/write queue pair, a write-drain
watermark, and self-scheduled wake-ups.

The DRAM-cache controller (:mod:`repro.cache.controller`) and the DDR5
backing store (:mod:`repro.memory.main_memory`) both drive their
channels through :class:`ChannelScheduler`. An owner subclasses it and
supplies:

* :meth:`~ChannelScheduler._select` — its FR-FCFS pick from one queue;
* :meth:`~ChannelScheduler._update_drain_mode` — its watermark rule;
* :meth:`~ChannelScheduler.earliest` / :meth:`~ChannelScheduler.commit`
  — the DRAM transaction that serves an op;
* optionally :meth:`~ChannelScheduler._on_blocked` — work to do while
  the picked op waits (TDRAM's early tag probes, §III-E).

Every arrival :meth:`~ChannelScheduler.kick`\\ s the loop. Unless a
wake-up is already pending, it serves the write queue while draining
(or when no read waits) and the read queue otherwise: it selects one
op and either commits it now or sleeps until the op's earliest issue
time. After a commit it wakes again when the channel's command slot
frees, as long as work remains.
"""

from __future__ import annotations

import abc
from typing import Generic, List, Optional, TypeVar

from repro.dram.device import DramChannel
from repro.sim.kernel import Simulator

OpT = TypeVar("OpT")


class ChannelScheduler(abc.ABC, Generic[OpT]):
    """Read/write queues + write drain + wake loop for one channel."""

    def __init__(self, sim: Simulator, channel: DramChannel,
                 high_watermark: int, low_watermark: int) -> None:
        self.sim = sim
        self.channel = channel
        self.read_q: List[OpT] = []
        self.write_q: List[OpT] = []
        #: write-queue depth that starts a drain / lets a drain end
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        #: serve writes ahead of waiting reads
        self.draining = False
        self._wake_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Owner hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _select(self, queue: List[OpT], at: int) -> OpT:
        """The op to serve next from the non-empty ``queue``."""

    @abc.abstractmethod
    def _update_drain_mode(self) -> None:
        """Set :attr:`draining` from the write-queue depth."""

    @abc.abstractmethod
    def earliest(self, op: OpT, now: int) -> int:
        """Earliest instant ``op`` could issue on the channel."""

    @abc.abstractmethod
    def commit(self, op: OpT, now: int) -> None:
        """Issue ``op`` now: reserve resources, schedule consequences."""

    def _on_blocked(self, now: int) -> None:
        """Called when work is queued but the next issue must wait."""

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def push_read(self, op: OpT) -> None:
        """Enqueue a read and try to issue."""
        self.read_q.append(op)
        self.kick()

    def push_write(self, op: OpT) -> None:
        """Enqueue a write and try to issue."""
        self.write_q.append(op)
        self.kick()

    def kick(self) -> None:
        """New work arrived: issue now unless a wake-up is still ahead."""
        now = self.sim.now
        if self._wake_at is not None and self._wake_at <= now:
            self._wake_at = None
        if self._wake_at is not None:
            # An issue is already pending; newly arrived work can still
            # be probed in the meantime (TDRAM, §III-E).
            self._on_blocked(now)
            return
        self._try_issue()

    def _schedule_wake(self, at: int) -> None:
        at = max(at, self.sim.now + 1)
        if self._wake_at is not None and self._wake_at <= at:
            return
        self._wake_at = at
        self.sim.at(at, self._on_wake)

    def _on_wake(self) -> None:
        self._wake_at = None
        self._try_issue()

    def _try_issue(self) -> None:
        now = self.sim.now
        self._update_drain_mode()
        read_q = self.read_q
        write_q = self.write_q
        queue = write_q if write_q and (self.draining or not read_q) else read_q
        if not queue:
            return
        op = self._select(queue, now)
        earliest = self.earliest(op, now)
        if earliest > now:
            self._schedule_wake(earliest)
            self._on_blocked(now)
            return
        queue.remove(op)
        self.commit(op, now)
        # Look for more work once the command slot frees.
        if read_q or write_q:
            self._schedule_wake(self.channel.ca.free_at)
