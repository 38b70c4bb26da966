"""CXL-like backing store — a flat link latency plus bandwidth credits.

The ``cxl_like`` backend models memory behind a serialized expansion
link rather than a parallel DRAM bus: every 64 B transfer occupies the
link for ``64 B / cxl_bandwidth_gbps`` (one transfer at a time — the
serialization the link protocol imposes), then pays a flat
``cxl_latency_ns`` of one-way link + device + controller latency. A
fixed pool of ``cxl_credits`` request credits bounds how many accesses
may be in flight at once (the latency-overlap bound of a credited
protocol); arrivals that find no free credit wait in a FIFO and are
counted as ``credit_stalls``. Each granted transfer counts one
``link_grant``.

There is no bank or row state: the device side is abstracted into the
flat latency, which is the standard first-order CXL memory model.
Knobs and counters are documented in ``docs/backends.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.config.system import SystemConfig
from repro.energy.power_model import EnergyMeter
from repro.memory.backend import MemoryBackend
from repro.sim.kernel import Simulator, ns
from repro.stats.counters import LatencyStat


class _CxlOp:
    """One queued or in-flight link transaction."""

    __slots__ = ("block", "is_write", "arrive", "callback")

    def __init__(self, block: int, is_write: bool, arrive: int,
                 callback: Optional[Callable[[int], None]]) -> None:
        self.block = block
        self.is_write = is_write
        self.arrive = arrive
        self.callback = callback


class CxlBackend(MemoryBackend):
    """Serialized-link backend with a bounded credit pool."""

    backend_name = "cxl_like"

    def __init__(self, sim: Simulator, config: SystemConfig,
                 meter: Optional[EnergyMeter] = None) -> None:
        super().__init__(sim, meter)
        self._latency_ps = ns(config.cxl_latency_ns)
        #: link occupancy of one 64 B transfer: 512 bits / (gbps * 1e9) s
        self._occupancy_ps = max(1, int(round(512_000.0
                                              / config.cxl_bandwidth_gbps)))
        self._credits = config.cxl_credits
        self._queue: Deque[_CxlOp] = deque()
        self._link_free = 0
        self._inflight = 0
        self._inflight_writes = 0
        self._queued_writes = 0
        self._queue_delay = LatencyStat("cxl_read_queue")
        self._latency = LatencyStat("cxl_read_latency")

    # ------------------------------------------------------------------
    def read(self, block_addr: int,
             callback: Optional[Callable[[int], None]],
             order: Optional[int] = None) -> None:
        """Fetch one block over the link; ``order`` is ignored (FIFO)."""
        self.reads_issued += 1
        self._enqueue(_CxlOp(block_addr, False, self.sim.now, callback))

    def write(self, block_addr: int) -> None:
        """Posted write: occupies the link and a credit like a read."""
        self.writes_issued += 1
        self._queued_writes += 1
        self._enqueue(_CxlOp(block_addr, True, self.sim.now, None))

    def _enqueue(self, op: _CxlOp) -> None:
        if self._credits == 0:
            self.counters.add("credit_stalls")
        self._queue.append(op)
        self._pump()

    def _pump(self) -> None:
        """Grant queued transactions while credits and the link allow."""
        now = self.sim.now
        while self._queue and self._credits > 0:
            op = self._queue.popleft()
            self._credits -= 1
            self._inflight += 1
            start = max(now, self._link_free)
            self._link_free = start + self._occupancy_ps
            self.counters.add("link_grants")
            finish = start + self._occupancy_ps + self._latency_ps
            if op.is_write:
                self._queued_writes -= 1
                self._inflight_writes += 1
            else:
                self._queue_delay.record(start - op.arrive)
                self._latency.record(finish - op.arrive)
            if self.meter is not None:
                self.meter.record("cmd")
                self.meter.add_dq_bytes(64)
            self.sim.at(finish, self._finish, op, finish)

    def _finish(self, op: _CxlOp, finish: int) -> None:
        """Transaction completed: return the credit, fire the callback."""
        self._credits += 1
        self._inflight -= 1
        if op.is_write:
            self._inflight_writes -= 1
        elif op.callback is not None:
            op.callback(finish)
        self._pump()

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Transactions waiting for a credit plus those in flight."""
        return len(self._queue) + self._inflight

    def pending_writes(self) -> int:
        """Writes waiting or in flight (back-pressure signal)."""
        return self._queued_writes + self._inflight_writes

    def write_queue_len(self) -> int:
        """Writes still waiting for a link grant."""
        return self._queued_writes

    @property
    def mean_read_latency_ns(self) -> float:
        """Mean read latency (arrival to data), nanoseconds."""
        return self._latency.mean_ns

    @property
    def read_queue_delay_ns(self) -> float:
        """Mean read wait for a credit + link slot, nanoseconds."""
        return self._queue_delay.mean_ns

    def reset_measurement(self) -> None:
        """Drop warm-up statistics at the measurement boundary."""
        super().reset_measurement()
        self._queue_delay.reset()
        self._latency.reset()
