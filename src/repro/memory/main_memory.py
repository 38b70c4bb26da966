"""DDR5 backing-store model.

The backing store serves read-miss fetches and dirty writebacks from the
DRAM cache (or all demands in the no-cache baseline). It models
Table III's 128 GiB / 2-channel DDR5, where each channel runs an independent **open-page** FR-FCFS scheduler (row hits
first) with a write-drain watermark policy — the page policy gem5
defaults to for DDR5, which gives streaming writebacks realistic
row-buffer locality (the DRAM cache itself is close-page, per
Table III). The issue loop is the shared
:class:`~repro.dram.scheduler.ChannelScheduler`.

The paper bounds its main-memory buffers at 64 entries; this DDR5
model keeps its queues unbounded with occupancy tracked instead — the
DRAM-cache controller's own bounded buffers (where the paper locates
the contention effects, §II-B) provide the system back-pressure.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Optional

from repro.dram.address import AddressMapper, DramGeometry
from repro.dram.device import DramChannel
from repro.dram.scheduler import ChannelScheduler
from repro.dram.timing import DramTiming
from repro.energy.power_model import EnergyMeter
from repro.sim.kernel import Simulator
from repro.stats.counters import LatencyStat

#: write-queue depth that starts a drain, and at or below which it may end
HIGH_WATERMARK = 32
LOW_WATERMARK = 8


class _Request:
    """One queued 64 B read or posted write."""

    __slots__ = ("bank", "row", "arrive", "order", "is_write", "callback")

    def __init__(self, bank: int, row: int, arrive: int, order: int,
                 is_write: bool,
                 callback: Optional[Callable[[int], None]]) -> None:
        self.bank = bank
        self.row = row
        self.arrive = arrive
        #: scheduling age: the demand sequence number for reads (so a
        #: fetch launched early, e.g. by TDRAM's probing, never overtakes
        #: an older demand's fetch), the arrival time for writes
        self.order = order
        self.is_write = is_write
        self.callback = callback


_age = attrgetter("order")


class _Ddr5Scheduler(ChannelScheduler[_Request]):
    """Open-page FR-FCFS with a sticky write drain for one channel."""

    def __init__(self, memory: "MainMemory", channel: DramChannel) -> None:
        super().__init__(memory.sim, channel, HIGH_WATERMARK, LOW_WATERMARK)
        self.read_queue_delay = memory.read_queue_delay
        self.read_latency = memory.read_latency

    def _select(self, queue: List[_Request], at: int) -> _Request:
        """FR-FCFS: row hits first, then bank-ready, then the oldest."""
        banks = self.channel.banks
        ready_hit = None
        ready = None
        for request in queue:
            bank = banks[request.bank]
            if bank.ready_at <= at:
                if bank.open_row == request.row:
                    if ready_hit is None or request.order < ready_hit.order:
                        ready_hit = request
                elif ready is None or request.order < ready.order:
                    ready = request
        if ready_hit is not None:
            return ready_hit
        if ready is not None:
            return ready
        return min(queue, key=_age)

    def _update_drain_mode(self) -> None:
        """A drain ends at the low watermark only once a read waits (or
        the write queue is empty): with no read to serve, writes keep
        the channel."""
        writes = len(self.write_q)
        if writes >= self.high_watermark:
            self.draining = True
        elif writes <= self.low_watermark and (self.read_q or not writes):
            self.draining = False

    def earliest(self, op: _Request, now: int) -> int:
        """Earliest open-page issue instant for ``op``."""
        return self.channel.earliest_issue_open(op.bank, now, op.row,
                                                op.is_write)

    def commit(self, op: _Request, now: int) -> None:
        """Issue ``op``; for a read, record its latencies."""
        grant = self.channel.issue_access_open(op.bank, now, op.row,
                                               op.is_write)
        if op.is_write:
            return
        finish = grant.data_end
        assert finish is not None
        self.read_queue_delay.record(now - op.arrive)
        self.read_latency.record(finish - op.arrive)
        if op.callback is not None:
            self.sim.at(finish, op.callback, finish)


class MainMemory:
    """The DDR5 backing store: address-interleaved independent channels."""

    def __init__(
        self,
        sim: Simulator,
        timing: DramTiming,
        geometry: DramGeometry,
        meter: Optional[EnergyMeter] = None,
        name: str = "mm",
    ) -> None:
        self.sim = sim
        #: read()/write() calls over the whole run (never reset)
        self.reads_issued = 0
        self.writes_issued = 0
        self.mapper = AddressMapper(geometry, scheme="RoRaBaChCo")
        self.channels = [
            DramChannel(sim, timing, geometry.banks_per_channel, f"{name}{i}",
                        page_policy="open")
            for i in range(geometry.channels)
        ]
        if meter is not None:
            meter.attach(self.channels)
        #: read latency statistics, shared by all channels
        self.read_queue_delay = LatencyStat("mm_read_queue")
        self.read_latency = LatencyStat("mm_read_latency")
        self._schedulers = [
            _Ddr5Scheduler(self, channel) for channel in self.channels
        ]

    def read(self, block_addr: int,
             callback: Optional[Callable[[int], None]],
             order: Optional[int] = None) -> None:
        """Fetch one 64 B block; ``callback(finish_time)`` fires on data.

        ``order`` carries the originating demand's age for age-aware
        scheduling; it defaults to the arrival time.
        """
        decoded = self.mapper.decode(block_addr)
        now = self.sim.now
        self._schedulers[decoded.channel].push_read(
            _Request(decoded.bank, decoded.row, now,
                     now if order is None else order, False, callback))
        self.reads_issued += 1

    def write(self, block_addr: int) -> None:
        """Posted 64 B write (cache writeback or write-through demand)."""
        decoded = self.mapper.decode(block_addr)
        now = self.sim.now
        self._schedulers[decoded.channel].push_write(
            _Request(decoded.bank, decoded.row, now, now, True, None))
        self.writes_issued += 1

    @property
    def mean_read_latency_ns(self) -> float:
        """Mean read latency (arrival to data) across channels, ns."""
        return self.read_latency.mean_ns

    @property
    def read_queue_delay_ns(self) -> float:
        """Mean read queueing delay (arrival to issue) across channels, ns."""
        return self.read_queue_delay.mean_ns

    def pending(self) -> int:
        """Requests waiting in any channel's read or write queue."""
        return sum(len(s.read_q) + len(s.write_q) for s in self._schedulers)

    def pending_writes(self) -> int:
        """Writes waiting in any channel's write queue (back-pressure)."""
        return sum(len(s.write_q) for s in self._schedulers)

    def reset_measurement(self) -> None:
        """Drop warm-up latency statistics at the measurement boundary."""
        self.read_queue_delay.reset()
        self.read_latency.reset()
