"""The per-run observability facade a controller owns.

``DramCacheController`` instantiates one :class:`ObsSession` when
``config.obs.any_enabled`` and calls its hooks at lifecycle points
(guarded by a single ``if self.obs is not None`` on the hot path).
The session fans each hook out to
whichever instruments are actually on, so a trace-only run pays
nothing for epochs and vice versa.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.epochs import EpochRecorder
from repro.obs.profiler import KernelProfiler
from repro.obs.trace import TraceSession
from repro.sim.kernel import ns


class ObsSession:
    """Wires TraceSession / EpochRecorder / KernelProfiler into a run."""

    def __init__(self, controller) -> None:
        config = controller.config.obs
        self.trace: Optional[TraceSession] = None
        self.epochs: Optional[EpochRecorder] = None
        self.profiler: Optional[KernelProfiler] = None
        if config.trace:
            self.trace = TraceSession(controller, limit=config.trace_limit)
        if config.epoch_us > 0:
            self.epochs = EpochRecorder(controller,
                                        ns(config.epoch_us * 1000.0))
        if config.profile:
            self.profiler = KernelProfiler()
            controller.sim.profiler = self.profiler

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_flush(self, flush) -> None:
        """Subscribe the trace to flush-buffer occupancy changes."""
        if self.trace is not None:
            flush.obs_sink = self.trace.on_flush_level

    def on_warm(self) -> None:
        """Warm-up boundary: re-baseline the epoch series.

        The trace and the profiler deliberately keep covering the whole
        run (warm-up behaviour is often exactly what a trace is for).
        """
        if self.epochs is not None:
            self.epochs.reset()

    def finalize(self) -> None:
        """End of run: flush the partial epoch."""
        if self.epochs is not None:
            self.epochs.finalize()

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def epoch_series(self) -> Dict[str, list]:
        """The columnar epoch series (empty dict when sampling is off)."""
        if self.epochs is None:
            return {}
        return self.epochs.series

    def profile_summary(self) -> Dict[str, object]:
        """The kernel-profiler digest (empty dict when profiling is off)."""
        if self.profiler is None:
            return {}
        return self.profiler.summary()

    def write_trace(self, path) -> int:
        """Write the Chrome trace JSON; returns events written (0 when
        tracing is off)."""
        if self.trace is None:
            return 0
        return self.trace.write(path)

    # ------------------------------------------------------------------
    # Lifecycle hooks (delegating; no-ops when tracing is off)
    # ------------------------------------------------------------------
    def on_enqueue(self, demand) -> None:
        """A demand entered the controller."""
        if self.trace is not None:
            self.trace.on_enqueue(demand)

    def on_issue(self, demand, time: int) -> None:
        """The demand's first DRAM command issued."""
        if self.trace is not None:
            self.trace.on_issue(demand, time)

    def on_probe(self, demand, issue: int, hm_at: int) -> None:
        """An early tag probe was fired for the demand."""
        if self.trace is not None:
            self.trace.on_probe(demand, issue, hm_at)

    def on_tag_result(self, demand, time: int, outcome) -> None:
        """The hit/miss outcome reached the controller."""
        if self.trace is not None:
            self.trace.on_tag_result(demand, time, outcome)

    def on_dq_window(self, demand, start: int, end: int) -> None:
        """The demand's data occupied the cache DQ bus."""
        if self.trace is not None:
            self.trace.on_dq_window(demand, start, end)

    def on_fetch_start(self, demand, time: int) -> None:
        """A main-memory fetch began for the demand's block."""
        if self.trace is not None:
            self.trace.on_fetch_start(demand, time)

    def on_fetch_return(self, demand, time: int) -> None:
        """The main-memory fetch for the demand returned."""
        if self.trace is not None:
            self.trace.on_fetch_return(demand, time)

    def on_read_complete(self, demand, time: int) -> None:
        """The read response was delivered (span end)."""
        if self.trace is not None:
            self.trace.on_read_complete(demand, time)

    def on_hm_result(self, channel_idx: int, hm_at: int) -> None:
        """An HM result packet crossed the HM bus."""
        if self.trace is not None:
            self.trace.on_hm_result(channel_idx, hm_at)

    def on_flush_drain(self, reason: str, block: int, start: int,
                       end: int) -> None:
        """A flush-buffer entry drained over DQ."""
        if self.trace is not None:
            self.trace.on_flush_drain(reason, block, start, end)
