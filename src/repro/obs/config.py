"""Observability configuration (``SystemConfig.obs``).

Kept import-light on purpose: :mod:`repro.config.system` embeds this
dataclass, so it must not import anything that imports the system
configuration back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ObsConfig:
    """What the observability layer records during a run.

    Everything defaults to off; a fully-disabled configuration attaches
    nothing to the controller, schedules zero extra kernel events, and
    leaves the simulation bit-for-bit identical to one without the
    layer. Each knob is independent:

    * ``trace`` — record request-lifecycle spans and bus-occupancy
      slices for Chrome/Perfetto export
      (:class:`repro.obs.trace.TraceSession`);
    * ``epoch_us`` — sample the metric time series every this many
      microseconds of *simulated* time (0 disables;
      :class:`repro.obs.epochs.EpochRecorder`);
    * ``profile`` — attach the kernel profiler (host wall-time per
      handler type; :class:`repro.obs.profiler.KernelProfiler`).

    Note for campaign users: ``ObsConfig`` is part of ``SystemConfig``
    and therefore of the content-addressed result-cache key — runs
    with different observability settings are cached separately, which
    is correct because ``RunResult.epochs``/``.profile`` differ.
    """

    #: record lifecycle spans + bus slices for trace-event export
    trace: bool = False
    #: retained trace records before new ones are dropped (counted)
    trace_limit: int = 200_000
    #: epoch-series sampling period in simulated µs (0 = off)
    epoch_us: float = 0.0
    #: attach the kernel profiler (host wall time; not deterministic)
    profile: bool = False

    def __post_init__(self) -> None:
        if self.epoch_us < 0:
            raise ConfigError("epoch_us must be >= 0")
        if self.trace_limit <= 0:
            raise ConfigError("trace_limit must be positive")

    @property
    def any_enabled(self) -> bool:
        """Whether any instrument is on (controller attaches the layer)."""
        return self.trace or self.profile or self.epoch_us > 0
