"""Observability layer: tracing, epoch metric streams, kernel profiling.

The paper's key claims are *timing* claims — hit latency flat under
load, HM-bus results decoupled from DQ transfers, flush-buffer drains
hidden in read-miss-clean slots (§III, §V) — which end-of-run
aggregates cannot show. This package makes time-resolved behaviour a
first-class output of every run:

* :class:`~repro.obs.trace.TraceSession` — per-request lifecycle spans
  (enqueue → probe → ActRd/ActWr → HM result → DQ window → retire,
  with miss/fill and flush-drain child spans) plus CA/DQ/HM
  bus-occupancy slices, exported as Chrome/Perfetto ``trace_event``
  JSON (``chrome://tracing`` or https://ui.perfetto.dev load it
  directly);
* :class:`~repro.obs.epochs.EpochRecorder` — a columnar time series of
  hit/miss, bandwidth, queue/flush occupancy, and RAS counters sampled
  every N µs of simulated time, included in
  :class:`~repro.experiments.runner.RunResult`;
* :class:`~repro.obs.profiler.KernelProfiler` — events/sec and
  per-handler dispatch counts / wall time for the simulation kernel,
  behind a zero-overhead-when-off flag.

Everything is off by default (``SystemConfig.obs``); a disabled run
schedules zero extra events and is bit-for-bit the plain simulator.
See ``docs/tracing.md`` for the trace format, the epoch-series schema,
and worked Perfetto/pandas examples.
"""

from repro.obs.config import ObsConfig
from repro.obs.epochs import EpochRecorder
from repro.obs.profiler import KernelProfiler
from repro.obs.session import ObsSession
from repro.obs.trace import TraceSession

__all__ = [
    "EpochRecorder",
    "KernelProfiler",
    "ObsConfig",
    "ObsSession",
    "TraceSession",
]
