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
* optionally :attr:`~ChannelScheduler.blocked_work`, set at
  construction — work to do while the picked op waits (TDRAM's early
  tag probes, §III-E). Owners without such work leave it ``None``, and
  their blocked polls make no call.

Every arrival :meth:`~ChannelScheduler.kick`\\ s the loop. Unless a
wake-up is already pending, it serves the write queue while draining
(or when no read waits) and the read queue otherwise: it selects one
op and either commits it now or sleeps until the op's earliest issue
time. After a commit it wakes again when the channel's command slot
frees, as long as work remains.

Orphaned wakes. A kick that lands on the very instant of a pending
wake clears ``_wake_at`` but leaves that wake's event queued. When the
orphan fires, it clears ``_wake_at`` again and arms a wake of its own,
so from then on two chains poll at every decision instant until the
queues empty; each further orphaning kick adds another. On no_cache/
lu.C (``SystemConfig.small()``, 600 demands per core, seed 7) 233 of
the 4,800 kicks land this way, and 220,422 of the run's 225,356 wakes
fire after their own ``_wake_at`` record was cleared or overwritten.
The golden digests (``tests/golden_runs.json``,
``benchmarks/e2e/golden.json``) pin these events through
``sim_events``; cancelling the orphans changes results, not just speed.

Blocked-decision reuse. Most of those polls repeat a decision already
made: same instant, same queues, same channel state. The loop keeps
its last blocked decision as ``(now, channel.version, wake time)``.
:class:`~repro.dram.device.DramChannel` bumps ``version`` in each of
its five state mutators, and :meth:`~ChannelScheduler.push_read`,
:meth:`~ChannelScheduler.push_write` and
:meth:`~ChannelScheduler.remove_read` — the only queue mutators — forget
the decision. A wake that finds it still current re-arms the remembered
wake and runs :attr:`~ChannelScheduler.blocked_work`, if any, in one
step, skipping the drain update, the pick and ``earliest``. Only a wake
can find it current: a blocked decision leaves ``_wake_at`` after
``now``, so a kick at that instant returns before deciding. This is
exact under the owner contract: ``_select``, ``_update_drain_mode`` and
``earliest`` read only ``now``, the queues,
:attr:`~ChannelScheduler.draining` and channel state that changes only
through the five mutators, and any side effect of ``earliest`` is
idempotent (TDRAM counts each probe-hold conflict once).

Folded wakes. The orphaned chains re-arm at the same instants, so
their wakes queue next to each other. Every wake goes through
:meth:`Simulator.wake <repro.sim.kernel.Simulator.wake>`, which folds
a wake into the instant's last handle when that is a pending wake of
this channel, and dispatches the batch as one ``_on_wake(n)`` call
that runs the ``n`` wakes back to back: no_cache on ft.D and lu.C
(seed 7, 600 demands per core) dispatches 288,007 events as 36,810
handles. When one of them finds the
blocked decision current and the owner has no blocked work, every
wake left would re-arm the same wake, so the call folds them all into
one re-arm. With blocked work the wakes run one at a time: a TDRAM
probe bumps ``channel.version``, and the next wake must decide again.
Events stay logical, so ``sim_events`` and the golden digests are as
before; once the orphans are gone (ROADMAP item 1) there is nothing
left to fold.
"""

from __future__ import annotations

import abc
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

from repro.dram.device import DramChannel
from repro.sim.kernel import Simulator

OpT = TypeVar("OpT")


class ChannelScheduler(abc.ABC, Generic[OpT]):
    """Read/write queues + write drain + wake loop for one channel.

    Owners mutate the queues only through :meth:`push_read`,
    :meth:`push_write` and :meth:`remove_read`, and keep the owner
    contract in the module docstring: a blocked decision is reused on
    a same-instant poll whenever the queues and ``channel.version`` are
    unchanged.
    """

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
        #: work to do, given ``now``, whenever work is queued but the
        #: next issue must wait; None when the owner has none
        self.blocked_work: Optional[Callable[[int], None]] = None
        self._wake_at: Optional[int] = None
        #: last blocked decision as ``(now, channel.version, wake time)``
        self._blocked: Optional[Tuple[int, int, int]] = None
        #: the wake callback and ``sim.wake``, bound once
        self._wake = self._on_wake
        self._sim_wake = sim.wake

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

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def push_read(self, op: OpT) -> None:
        """Enqueue a read and try to issue."""
        self.read_q.append(op)
        self._blocked = None
        self.kick()

    def push_write(self, op: OpT) -> None:
        """Enqueue a write and try to issue."""
        self.write_q.append(op)
        self._blocked = None
        self.kick()

    def remove_read(self, op: OpT) -> None:
        """Drop a queued read that no longer needs its DRAM access."""
        self.read_q.remove(op)
        self._blocked = None

    def kick(self) -> None:
        """New work arrived: issue now unless a wake-up is still ahead."""
        now = self.sim.now
        wake_at = self._wake_at
        if wake_at is not None:
            if wake_at > now:
                # An issue is already pending; newly arrived work can
                # still be probed in the meantime (TDRAM, §III-E).
                work = self.blocked_work
                if work is not None:
                    work(now)
                return
            self._wake_at = None
        self._try_issue()

    def _schedule_wake(self, at: int) -> None:
        """Wake at ``at`` (after now) unless a wake at or before it is
        already pending."""
        if self._wake_at is not None and self._wake_at <= at:
            return
        self._wake_at = at
        self._sim_wake(at, self._wake)

    def _on_wake(self, count: int = 1) -> None:
        """Run ``count`` wakes back to back (a batch of folded wakes)."""
        now = self.sim.now
        while True:
            blocked = self._blocked
            if (blocked is not None and blocked[0] == now
                    and blocked[1] == self.channel.version):
                # Same instant, same queues, same channel: same decision.
                at = self._wake_at = blocked[2]
                work = self.blocked_work
                if work is None:
                    # Nothing here can change the decision, so every
                    # wake left re-arms this same wake: fold them all.
                    self._sim_wake(at, self._wake, count)
                    return
                self._sim_wake(at, self._wake)
                # A probe bumps channel.version: the next wake decides.
                work(now)
            else:
                self._wake_at = None
                self._try_issue()
            if count == 1:
                return
            count -= 1

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
            self._blocked = (now, self.channel.version, earliest)
            self._schedule_wake(earliest)
            work = self.blocked_work
            if work is not None:
                work(now)
            return
        queue.remove(op)
        self.commit(op, now)
        # Look for more work once the command slot frees.
        if read_q or write_q:
            free_at = self.channel.ca.free_at
            self._schedule_wake(free_at if free_at > now else now + 1)
