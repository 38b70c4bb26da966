"""PCM-like backing store — slow, asymmetric, endurance-limited media.

The ``pcm_like`` backend models the hybrid-memory setting the eDRAM-
over-PCM controllers target: array reads are slow (``pcm_read_ns``)
and array writes are several times slower still (``pcm_write_ns``),
so the controller front-ends the medium with

* a **bounded MSHR file** for reads: concurrent reads to the same
  block coalesce into one array access (``mshr_coalesced``), and reads
  arriving with the file full wait in an overflow queue
  (``mshr_stalls``) until an entry frees;
* a **deferred write queue** drained by a periodic tick event
  (``pcm_drain_tick_ns``): writes are posted into the queue
  (``wq_inserts``; arrivals past ``pcm_write_queue_entries`` are
  counted as ``wq_stalls``) and only issued to a bank the tick finds
  idle — reads therefore always win bank conflicts, which is the
  read-priority policy write-asymmetric media need;
* **store-to-load forwarding**: a read that hits a queued write is
  served from the queue SRAM (``wq_read_forwards``) without touching
  the array;
* per-bank **wear counters**: every array write increments the bank's
  lifetime wear (``wear_writes`` for the measured region;
  ``wear_total``/``wear_max`` lifetime, exported by
  :meth:`PcmBackend.wear_summary`).

Banking is flat: ``mm_channels * mm_banks_per_channel`` independent
banks, block-interleaved. There is no row-buffer model — PCM reads are
nondestructive and the devices this imitates close the row — so a
bank is simply busy for the access time. Knobs and counters are
documented in ``docs/backends.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.config.system import SystemConfig
from repro.energy.power_model import EnergyMeter
from repro.memory.backend import MemoryBackend
from repro.sim.kernel import Simulator, ns
from repro.stats.counters import LatencyStat

#: Service time of a read forwarded from the deferred write queue
#: (an SRAM lookup, not an array access).
_FORWARD_NS = 10.0


class _PcmRead:
    """One in-flight (or overflow-queued) read with its coalesced waiters."""

    __slots__ = ("block", "bank", "arrive", "callbacks")

    def __init__(self, block: int, bank: int, arrive: int,
                 callback: Optional[Callable[[int], None]]) -> None:
        self.block = block
        self.bank = bank
        self.arrive = arrive
        self.callbacks = [callback]


class PcmBackend(MemoryBackend):
    """Asymmetric-timing backend with bounded MSHRs and deferred writes."""

    backend_name = "pcm_like"

    def __init__(self, sim: Simulator, config: SystemConfig,
                 meter: Optional[EnergyMeter] = None) -> None:
        super().__init__(sim, meter)
        self._read_ps = ns(config.pcm_read_ns)
        self._write_ps = ns(config.pcm_write_ns)
        self._forward_ps = ns(_FORWARD_NS)
        self._tick_ps = ns(config.pcm_drain_tick_ns)
        self._mshr_entries = config.pcm_mshr_entries
        self._wq_entries = config.pcm_write_queue_entries
        self._banks = config.mm_channels * config.mm_banks_per_channel
        #: next instant each bank's array is free
        self._bank_free = [0] * self._banks
        #: lifetime array writes per bank (endurance; never reset)
        self.wear = [0] * self._banks
        #: block -> in-flight read (the MSHR file)
        self._mshrs: Dict[int, _PcmRead] = {}
        #: reads waiting for a free MSHR, FIFO
        self._overflow: Deque[_PcmRead] = deque()
        self._overflow_index: Dict[int, _PcmRead] = {}
        #: deferred writes, FIFO of (block, bank)
        self._wq: Deque[Tuple[int, int]] = deque()
        #: block -> queued-write count (store-to-load forwarding index)
        self._wq_blocks: Dict[int, int] = {}
        self._drain_pending = False
        self._queue_delay = LatencyStat("pcm_read_queue")
        self._latency = LatencyStat("pcm_read_latency")

    # ------------------------------------------------------------------
    def _bank_of(self, block_addr: int) -> int:
        return block_addr % self._banks

    def read(self, block_addr: int,
             callback: Optional[Callable[[int], None]],
             order: Optional[int] = None) -> None:
        """Fetch one block: coalesce, forward, or access the array.

        ``order`` is ignored — the MSHR file admits in arrival order.
        """
        now = self.sim.now
        self.reads_issued += 1
        entry = self._mshrs.get(block_addr)
        if entry is not None:
            entry.callbacks.append(callback)
            self.counters.add("mshr_coalesced")
            return
        waiting = self._overflow_index.get(block_addr)
        if waiting is not None:
            waiting.callbacks.append(callback)
            self.counters.add("mshr_coalesced")
            return
        if self._wq_blocks.get(block_addr, 0) > 0:
            # Store-to-load forward from the deferred write queue: the
            # freshest copy lives in queue SRAM, not the array.
            self.counters.add("wq_read_forwards")
            finish = now + self._forward_ps
            self._queue_delay.record(0)
            self._latency.record(finish - now)
            if callback is not None:
                self.sim.at(finish, callback, finish)
            return
        entry = _PcmRead(block_addr, self._bank_of(block_addr), now, callback)
        if len(self._mshrs) >= self._mshr_entries:
            self.counters.add("mshr_stalls")
            self._overflow.append(entry)
            self._overflow_index[block_addr] = entry
        else:
            self._admit(entry)

    def _admit(self, entry: _PcmRead) -> None:
        """Allocate an MSHR and reserve the bank for the array read."""
        self.counters.add("mshr_inserts")
        self._mshrs[entry.block] = entry
        start = max(self.sim.now, self._bank_free[entry.bank])
        finish = start + self._read_ps
        self._bank_free[entry.bank] = finish
        self._queue_delay.record(start - entry.arrive)
        self._latency.record(finish - entry.arrive)
        if self.meter is not None:
            self.meter.record("cmd")
            self.meter.record("col_op")
            self.meter.add_dq_bytes(64)
        self.sim.at(finish, self._finish_read, entry.block, finish)

    def _finish_read(self, block_addr: int, finish: int) -> None:
        """Data returned: complete all coalesced waiters, refill MSHRs."""
        entry = self._mshrs.pop(block_addr)
        for callback in entry.callbacks:
            if callback is not None:
                callback(finish)
        while self._overflow and len(self._mshrs) < self._mshr_entries:
            waiting = self._overflow.popleft()
            del self._overflow_index[waiting.block]
            self._admit(waiting)

    def write(self, block_addr: int) -> None:
        """Post a write into the deferred queue (drained by the tick)."""
        self.writes_issued += 1
        self.counters.add("wq_inserts")
        if len(self._wq) >= self._wq_entries:
            self.counters.add("wq_stalls")
        self._wq.append((block_addr, self._bank_of(block_addr)))
        self._wq_blocks[block_addr] = self._wq_blocks.get(block_addr, 0) + 1
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if not self._drain_pending:
            self._drain_pending = True
            self.sim.schedule(self._tick_ps, self._drain_tick)

    def _drain_tick(self) -> None:
        """Issue queued writes to banks the tick finds idle.

        A bank busy with (or reserved by) a read is skipped, so reads
        always pre-empt deferred writes; at most one write per bank
        issues per tick.
        """
        self._drain_pending = False
        now = self.sim.now
        issued_banks = set()
        remaining: Deque[Tuple[int, int]] = deque()
        while self._wq:
            block, bank = self._wq.popleft()
            if bank in issued_banks or self._bank_free[bank] > now:
                remaining.append((block, bank))
                continue
            issued_banks.add(bank)
            self._bank_free[bank] = now + self._write_ps
            self.wear[bank] += 1
            self.counters.add("wq_drains")
            self.counters.add("wear_writes")
            count = self._wq_blocks[block] - 1
            if count:
                self._wq_blocks[block] = count
            else:
                del self._wq_blocks[block]
            if self.meter is not None:
                self.meter.record("cmd")
                self.meter.record("col_op")
                self.meter.add_dq_bytes(64)
        self._wq = remaining
        if self._wq:
            self._schedule_drain()

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """In-flight MSHRs + overflow reads + deferred writes."""
        return len(self._mshrs) + len(self._overflow) + len(self._wq)

    def pending_writes(self) -> int:
        """Depth of the deferred write queue (back-pressure signal)."""
        return len(self._wq)

    def mshr_occupancy(self) -> int:
        """Allocated MSHR entries (in-flight array reads)."""
        return len(self._mshrs)

    @property
    def mean_read_latency_ns(self) -> float:
        """Mean read latency (arrival to data), nanoseconds."""
        return self._latency.mean_ns

    @property
    def read_queue_delay_ns(self) -> float:
        """Mean read queueing delay (arrival to array issue), ns."""
        return self._queue_delay.mean_ns

    def wear_summary(self) -> Dict[str, int]:
        """Lifetime endurance counters across all banks."""
        return {"wear_total": sum(self.wear), "wear_max": max(self.wear)}

    def reset_measurement(self) -> None:
        """Drop warm-up statistics; lifetime wear survives."""
        super().reset_measurement()
        self._queue_delay.reset()
        self._latency.reset()
