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
    nothing to the run, schedules zero extra kernel events, and
    leaves the simulation bit-for-bit identical to one without the
    layer. Each knob is independent:

    * ``trace`` — record request-lifecycle spans and bus-occupancy
      slices for Chrome/Perfetto export
      (:class:`repro.obs.trace.TraceSession`, held by the cache
      controller);
    * ``epoch_us`` — sample the metric time series every this many
      microseconds of *simulated* time (0 disables;
      :class:`repro.obs.epochs.EpochRecorder`, which ``run_experiment``
      attaches to the cache controller);
    * ``profile`` — attach the kernel profiler (host wall-time per
      handler type; :class:`repro.obs.profiler.KernelProfiler`, which
      ``run_experiment`` attaches to the simulator).

    ``trace`` and ``epoch_us`` sample cache-controller state, so
    ``run_experiment`` rejects them for ``no_cache``; ``profile`` works
    for every design.

    Note for campaign users: ``ObsConfig`` is part of ``SystemConfig``
    and therefore of the content-addressed result-cache key — runs
    with different observability settings are cached separately, which
    is correct because ``RunResult.epochs``/``.profile`` differ.
    """

    #: record lifecycle spans + bus slices for trace-event export
    trace: bool = False
    #: epoch-series sampling period in simulated µs (0 = off)
    epoch_us: float = 0.0
    #: attach the kernel profiler (host wall time; not deterministic)
    profile: bool = False

    def __post_init__(self) -> None:
        if self.epoch_us < 0:
            raise ConfigError("epoch_us must be >= 0")
