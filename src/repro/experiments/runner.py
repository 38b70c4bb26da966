"""Experiment runner: one (design, workload) simulation -> RunResult.

Mirrors the paper's methodology (§IV): every design sees the identical
demand stream (same seed), statistics cover only the post-warm-up
region, and runtime is the completion time of a fixed work quantum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.cache import DESIGNS
from repro.cache.no_cache import NoCacheSystem
from repro.config.system import SystemConfig
from repro.energy.power_model import EnergyMeter
from repro.errors import ConfigError, SimulationError
from repro.frontend.core_model import build_cores
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator, ns, to_ns
from repro.sim.rng import Pcg64
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import demand_stream, workload as lookup_workload

#: Simulated time per watchdog check.
_CHUNK_PS = ns(200_000)
#: Abort after this many chunks without any new submission.
_STALL_CHUNKS = 50


@dataclass
class RunResult:
    """Measured quantities of one simulation run."""

    design: str
    workload: str
    demands: int
    runtime_ps: int
    # latencies (ns, post-warm-up means)
    tag_check_ns: float
    queue_delay_ns: float
    read_latency_ns: float
    mm_read_latency_ns: float
    # architectural mix
    miss_ratio: float
    read_miss_ratio: float
    breakdown: Dict[str, float]
    # bandwidth
    bloat_factor: float
    unuseful_fraction: float
    useful_bytes: int
    total_bytes: int
    # energy
    energy_pj: float            #: whole memory subsystem (cache + DDR5)
    cache_energy_pj: float = 0.0  #: DRAM-cache device + interface only
    # design-specific extras
    probes: int = 0
    probe_bank_conflicts: int = 0
    prefetches: int = 0
    prefetch_useful: int = 0
    flush_mean_occupancy: float = 0.0
    flush_max_occupancy: int = 0
    flush_stalls: int = 0
    flush_unloads: Dict[str, int] = field(default_factory=dict)
    writebacks: int = 0
    events: Dict[str, int] = field(default_factory=dict)
    #: kernel events dispatched over the whole run (incl. warm-up),
    #: counted as logical events (a batch of n folded wakes counts n) —
    #: the simulator-throughput denominator for events/sec benchmarks
    sim_events: int = 0
    #: always empty; kept because the e2e golden digests hash it
    ras: Dict[str, int] = field(default_factory=dict)
    #: always empty; kept because the e2e golden digests hash it
    backend: Dict[str, int] = field(default_factory=dict)
    #: columnar epoch time series (empty unless config.obs.epoch_us > 0);
    #: schema in docs/tracing.md — pandas.DataFrame(result.epochs) works
    epochs: Dict[str, List[float]] = field(default_factory=dict)
    #: kernel-profiler digest (empty unless config.obs.profile)
    profile: Dict[str, object] = field(default_factory=dict)
    #: always empty; kept because the e2e golden digests hash it
    sampling: Dict[str, object] = field(default_factory=dict)

    @property
    def runtime_ns(self) -> float:
        """The measured runtime in nanoseconds."""
        return to_ns(self.runtime_ps)

    def speedup_over(self, baseline: "RunResult") -> float:
        """Fixed-work speedup of this run relative to ``baseline``."""
        if self.runtime_ps <= 0:
            raise ConfigError("runtime must be positive for a speedup")
        return baseline.runtime_ps / self.runtime_ps


def run_experiment(
    design: str,
    spec: Union[WorkloadSpec, str],
    config: Optional[SystemConfig] = None,
    demands_per_core: int = 2000,
    seed: int = 42,
    trace_out: Optional[str] = None,
) -> RunResult:
    """Simulate ``design`` under one workload and collect every metric.

    ``config.obs`` attaches the instruments here: the kernel profiler
    to the simulator (any design) and the epoch recorder to the cache
    controller, which also holds the tracer. ``no_cache`` has no cache
    controller, so asking it for a trace or an epoch series raises a
    :class:`ConfigError` before anything is simulated.

    Parameters
    ----------
    design:
        One of ``repro.cache.DESIGNS`` ("cascade_lake", "alloy", "bear",
        "ndc", "tdram", "ideal", "no_cache").
    spec:
        A :class:`WorkloadSpec` or a workload name like ``"ft.D"`` or
        ``"write_storm"``.
    demands_per_core:
        The fixed work quantum each simulated core executes.
    trace_out:
        Path to write a Chrome/Perfetto trace to after the run; only
        meaningful when ``config.obs.trace`` is on (see docs/tracing.md).
    """
    if isinstance(spec, str):
        spec = lookup_workload(spec)
    config = config or SystemConfig()
    streams = [
        demand_stream(spec, config, core_id, config.cores, seed)
        for core_id in range(config.cores)
    ]
    check_design(design)
    if demands_per_core <= 0:
        raise ConfigError(
            f"demands_per_core must be positive, got {demands_per_core}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    obs = config.obs
    if design == "no_cache" and (obs.trace or obs.epoch_us > 0):
        raise ConfigError(
            f"design {design!r} has no cache controller to trace or "
            f"sample: ObsConfig.trace and ObsConfig.epoch_us need a cache "
            f"design (got trace={obs.trace}, epoch_us={obs.epoch_us}); "
            f"ObsConfig.profile works on every design")
    sim = Simulator()
    mm_meter = EnergyMeter(config.energy_model, config.mm_channels, False)
    main_memory = MainMemory(sim, config.mm_timing, config.mm_geometry(),
                             meter=mm_meter)
    sink = DESIGNS[design](sim, config, main_memory)
    profiler = epochs = None
    if obs.profile:
        from repro.obs.profiler import KernelProfiler

        profiler = KernelProfiler()
        sim.profiler = profiler
    if obs.epoch_us > 0:
        from repro.obs.epochs import EpochRecorder

        epochs = EpochRecorder(sink, ns(obs.epoch_us * 1000.0))
    _prewarm(sink, spec, config, seed)

    cores, progress = build_cores(
        sim, sink, streams, demands_per_core,
        config.max_outstanding_reads_per_core, config.warmup_fraction,
    )

    measure_start = 0

    def on_warm() -> None:
        """Start the measured region once every core is warm."""
        nonlocal measure_start
        measure_start = sim.now
        _reset_measurement(sink, mm_meter, main_memory)
        if epochs is not None:
            epochs.reset()

    progress.on_warm = on_warm
    progress.on_all_done = sim.stop

    for core in cores:
        core.start()

    sim_events = _drive(sim, progress, design, spec)

    runtime = max(1, sim.now - measure_start)
    result = _harvest(design, spec, sink, main_memory, mm_meter, runtime,
                      sim_events)
    if epochs is not None:
        epochs.finalize()
        result.epochs = epochs.series
    if profiler is not None:
        result.profile = profiler.summary()
    if obs.trace and trace_out is not None:
        sink.trace.write(trace_out)
    return result


def check_design(design: str) -> None:
    """Raise :class:`ConfigError` unless ``design`` is in ``DESIGNS``."""
    if design not in DESIGNS:
        raise ConfigError(f"unknown design {design!r}; choose from {sorted(DESIGNS)}")


def _drive(sim: Simulator, progress, design: str, spec: WorkloadSpec) -> int:
    """Advance the kernel in watchdog chunks until all cores finish.

    Returns the number of events dispatched. Raises
    :class:`SimulationError` on a drained-but-unfinished kernel or on
    ``_STALL_CHUNKS`` consecutive chunks without a new submission.
    """
    last_submitted = -1
    stall_chunks = 0
    sim_events = 0
    while not progress.all_done:
        dispatched = sim.run(until=sim.now + _CHUNK_PS)
        sim_events += dispatched
        if progress.all_done:
            break
        if dispatched == 0 and sim.pending() == 0:
            raise SimulationError(
                f"{design}/{spec.name}: simulation drained with cores unfinished"
            )
        if progress.submitted == last_submitted:
            stall_chunks += 1
            if stall_chunks >= _STALL_CHUNKS:
                raise SimulationError(
                    f"{design}/{spec.name}: no forward progress "
                    f"({progress.submitted}/{progress.total_demands} submitted)"
                )
        else:
            stall_chunks = 0
            last_submitted = progress.submitted
    return sim_events


def _reset_measurement(sink, mm_meter: EnergyMeter,
                       main_memory: MainMemory) -> None:
    """Zero every measured statistic at the warm-up boundary."""
    sink.metrics.reset()
    if sink.meter is not None:
        sink.meter.reset()
    mm_meter.reset()
    main_memory.reset_measurement()
    flush = getattr(sink, "flush", None)
    if flush is not None:
        flush.occupancy.reset()
        flush.events.reset()
        flush.stalls = 0


def _harvest(design: str, spec: WorkloadSpec, sink,
             main_memory: MainMemory, mm_meter: EnergyMeter,
             runtime: int, sim_events: int) -> RunResult:
    """Collect every RunResult field from a finished simulation."""
    metrics = sink.metrics
    energy = mm_meter.total_pj(runtime)
    cache_energy = 0.0
    if sink.meter is not None:
        cache_energy = sink.meter.total_pj(runtime)
        energy += cache_energy

    result = RunResult(
        design=design,
        workload=spec.name,
        demands=metrics.demands,
        runtime_ps=runtime,
        tag_check_ns=metrics.tag_check.mean_ns,
        queue_delay_ns=_queue_delay_ns(design, sink, main_memory),
        read_latency_ns=metrics.read_latency.mean_ns,
        mm_read_latency_ns=main_memory.mean_read_latency_ns,
        miss_ratio=metrics.miss_ratio,
        read_miss_ratio=metrics.read_miss_ratio,
        breakdown=metrics.breakdown(),
        bloat_factor=metrics.ledger.bloat_factor,
        unuseful_fraction=metrics.ledger.unuseful_fraction,
        useful_bytes=metrics.ledger.useful_bytes,
        total_bytes=metrics.ledger.total_bytes,
        energy_pj=energy,
        cache_energy_pj=cache_energy,
        writebacks=getattr(sink, "writebacks", 0),
        events=metrics.events.as_dict(),
        sim_events=sim_events,
    )
    probe_engine = getattr(sink, "probe_engine", None)
    if probe_engine is not None:
        result.probes = probe_engine.probes
        result.probe_bank_conflicts = probe_engine.bank_conflicts
    prefetcher = getattr(sink, "prefetcher", None)
    if prefetcher is not None:
        result.prefetches = prefetcher.issued
        result.prefetch_useful = prefetcher.stats["useful"]
    flush = getattr(sink, "flush", None)
    if flush is not None:
        result.flush_mean_occupancy = flush.occupancy.mean_level
        result.flush_max_occupancy = flush.occupancy.max_level
        result.flush_stalls = flush.stalls
        result.flush_unloads = {
            name: flush.events[name]
            for name in flush.events.names()
            if name.startswith("unload_")
        }
    return result


def _prewarm(sink, spec: WorkloadSpec, config: SystemConfig,
             seed: int) -> None:
    """Install the steady-state resident set (warmed checkpoint, §IV-B).

    Workload generators place their reused ("hot") data at the low end
    of the footprint, so installing the first ``min(footprint, frames)``
    blocks reproduces the steady state: fitting workloads become fully
    resident, over-sized ones leave the cold tail to conflict as usual.
    Lines are dirtied with the workload's write probability; the dirty
    flags are a lazy view of the seeded stream, so a store that
    materialises only the sets a run touches draws only their flags.
    """
    tags = getattr(sink, "tags", None)
    if tags is None:
        return
    blocks = range(min(spec.footprint_blocks(config), tags.num_frames))
    # Steady-state dirtiness is well below the write fraction: fills are
    # clean and rewrites re-dirty the same hot lines, so misses landing
    # on dirty victims stay rare (§II-B: "write demands that miss to a
    # dirty line are very rare").
    dirty = Pcg64(seed ^ 0x5EED).bernoulli(
        len(blocks), 0.3 * (1.0 - spec.read_fraction))
    tags.bulk_install(blocks, dirty)


def _queue_delay_ns(design: str, sink, main_memory: MainMemory) -> float:
    """Read-buffer queueing delay; the no-cache system reports the
    main-memory read queue instead (Fig. 2's rightmost bars)."""
    if isinstance(sink, NoCacheSystem):
        return main_memory.read_queue_delay_ns
    return sink.metrics.read_queue_delay.mean_ns
