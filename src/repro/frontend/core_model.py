"""Closed-loop multi-core front end (§IV-A's processor side).

Each :class:`Core` replays its workload stream against the memory
system: reads are latency-bound (a core supports a limited number of
outstanding misses, like an MSHR file), writes are posted LLC
writebacks subject only to buffer back-pressure. Runtime is the time
for all cores to finish a fixed work quantum — the fixed-work
methodology the paper adopts via LoopPoint [16], [61].
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.cache.request import DemandRequest, Op
from repro.sim.kernel import Simulator, ns
from repro.workloads.base import DemandRecord

#: Back-off before retrying a demand refused by a full controller buffer.
RETRY_DELAY = ns(20)

# Read per demand, as a module global (see repro.cache.controller).
_READ = Op.READ


class Progress:
    """Shared submission/completion bookkeeping across all cores."""

    def __init__(self, total_demands: int, warmup_fraction: float) -> None:
        self.total_demands = total_demands
        self.warmup_threshold = int(total_demands * warmup_fraction)
        self.submitted = 0
        self.on_warm: Optional[Callable[[], None]] = None
        self.on_all_done: Optional[Callable[[], None]] = None
        self._warm_fired = False
        self._done_cores = 0
        self._total_cores = 0

    def register_core(self) -> None:
        self._total_cores += 1

    def note_submit(self) -> None:
        self.submitted += 1
        if (not self._warm_fired and self.on_warm is not None
                and self.submitted >= self.warmup_threshold):
            self._warm_fired = True
            self.on_warm()

    def note_core_done(self) -> None:
        self._done_cores += 1
        if self._done_cores == self._total_cores and self.on_all_done is not None:
            self.on_all_done()

    @property
    def all_done(self) -> bool:
        return self._total_cores > 0 and self._done_cores == self._total_cores


class Core:
    """One processor core replaying a demand stream, closed loop."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        stream: Iterator[DemandRecord],
        sink,
        demands: int,
        max_outstanding_reads: int,
        progress: Progress,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.stream = stream
        self.sink = sink
        self.demands = demands
        self.max_outstanding_reads = max_outstanding_reads
        self.progress = progress
        progress.register_core()
        self.issued = 0
        self.outstanding_reads = 0
        self.finished = False
        self._pending: Optional[DemandRecord] = None
        self._pending_ready_at = 0
        self.retries = 0

    def start(self) -> None:
        """Begin replay (call once before ``sim.run``)."""
        self.sim.at(self.sim.now, self._advance)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Fetch the next record and schedule its submission."""
        if self._pending is not None:
            return
        if self.issued >= self.demands:
            self._check_finished()
            return
        try:
            record = next(self.stream)
        except StopIteration:
            # Finite stream (e.g. a short trace) ran out early: treat
            # the work quantum as complete rather than crashing.
            self.demands = self.issued
            self._check_finished()
            return
        self._pending = record
        ready_at = self._pending_ready_at = self.sim.now + record[0]
        self.sim.at(ready_at, self._try_submit)

    def _try_submit(self) -> None:
        record = self._pending
        if record is None or self.sim.now < self._pending_ready_at:
            return  # the inter-arrival gap has not elapsed yet
        _gap, op, block, pc = record
        if op is _READ and self.outstanding_reads >= self.max_outstanding_reads:
            return  # parked; resumed by _on_read_complete
        if not self.sink.can_accept(op, block):
            self.retries += 1
            self.sim.at(self.sim.now + RETRY_DELAY, self._try_submit)
            return
        self._pending = None
        self.issued += 1
        request = DemandRequest(op=op, block_addr=block, core_id=self.core_id, pc=pc)
        if op is _READ:
            self.outstanding_reads += 1
            request.on_complete = self._on_read_complete
        self.sink.submit(request)
        self.progress.note_submit()
        self._advance()

    def _on_read_complete(self, _time: int) -> None:
        self.outstanding_reads -= 1
        if self._pending is not None:
            self._try_submit()
        else:
            self._check_finished()

    def _check_finished(self) -> None:
        if (not self.finished and self.issued >= self.demands
                and self.outstanding_reads == 0 and self._pending is None):
            self.finished = True
            self.progress.note_core_done()


def build_cores(
    sim: Simulator,
    sink,
    streams: List[Iterator[DemandRecord]],
    demands_per_core: int,
    max_outstanding_reads: int,
    warmup_fraction: float,
) -> tuple:
    """Wire up one core per stream; returns ``(cores, progress)``."""
    progress = Progress(demands_per_core * len(streams), warmup_fraction)
    cores = [
        Core(sim, core_id, stream, sink, demands_per_core,
             max_outstanding_reads, progress)
        for core_id, stream in enumerate(streams)
    ]
    return cores, progress
