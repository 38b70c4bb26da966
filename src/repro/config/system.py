"""System configuration (Table III) with geometry scaling.

The paper models 1/8 of a Xeon-Max-class node: 8 cores, an 8 GiB HBM
DRAM cache (8 channels), and 128 GiB of DDR5 (2 channels). Simulating
gigabytes of traffic in Python is unnecessary: miss behaviour in a
direct-mapped cache depends on the footprint/capacity *ratio* and the
reuse structure, so the default configuration scales the cache to
64 MiB and scales every workload footprint by the same factor, keeping
all timing parameters at their Table III values. ``SystemConfig.paper()``
restores the full-size geometry for users with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dram.address import DramGeometry
from repro.dram.timing import (
    DramTiming,
    TagTiming,
    ddr5_timing,
    hbm3_cache_timing,
    rldram_like_tag_timing,
)
from repro.energy.power_model import EnergyModel
from repro.errors import ConfigError
from repro.obs.config import ObsConfig

GIB = 1024 ** 3
MIB = 1024 ** 2

#: The paper's DRAM-cache capacity; workload footprints are specified
#: against this and scaled alongside the configured capacity.
PAPER_CACHE_BYTES = 8 * GIB

@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system configuration (Table III, scalable)."""

    # -- DRAM cache device --
    cache_capacity_bytes: int = 64 * MIB
    cache_channels: int = 8
    cache_banks_per_channel: int = 16
    cache_ways: int = 1
    cache_timing: DramTiming = field(default_factory=hbm3_cache_timing)
    tag_timing: TagTiming = field(default_factory=rldram_like_tag_timing)
    # -- DRAM cache controller --
    read_buffer_entries: int = 64
    write_buffer_entries: int = 64
    flush_buffer_entries: int = 16
    enable_probing: bool = True
    #: MAP-I hit/miss predictor (§V-D); read by cascade_lake and the
    #: designs built on it (alloy, bear), ignored by the rest
    use_predictor: bool = False
    #: stride prefetcher; read by every cache controller, ignored by
    #: no_cache
    use_prefetcher: bool = False
    prefetch_degree: int = 2
    #: "all_bank" (default; creates the DQ-idle refresh windows TDRAM
    #: uses for flush unloads) or "per_bank" (staggered, §III-C2 option)
    cache_refresh_policy: str = "all_bank"
    #: TDRAM flush-buffer unloading: "opportunistic" (read-miss-clean
    #: slots + refresh windows + forced, §III-D2) or "forced_only"
    #: (explicit drains only — the ablation knob isolating the
    #: opportunistic channels' contribution)
    flush_unload_policy: str = "opportunistic"
    # -- main memory --
    mm_channels: int = 2
    mm_banks_per_channel: int = 32           #: DDR5: 8 bank groups x 4 banks
    mm_capacity_bytes: int = 16 * 64 * MIB   #: 16x the cache, as in the paper
    mm_timing: DramTiming = field(default_factory=ddr5_timing)
    # -- processors / front end --
    cores: int = 8
    #: Effective memory-level parallelism of one core on DRAM-latency
    #: misses (OoO windows sustain ~4 concurrent LLC misses).
    max_outstanding_reads_per_core: int = 4
    # -- methodology --
    warmup_fraction: float = 0.2
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    # -- observability (tracing / epoch series / profiling; all off) --
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        if self.cache_capacity_bytes <= 0 or self.mm_capacity_bytes <= 0:
            raise ConfigError("capacities must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if self.cores <= 0:
            raise ConfigError("cores must be positive")
        if self.cache_ways <= 0:
            raise ConfigError("cache_ways must be positive")
        # An empty buffer admits no demand: fail here, not in a stall.
        for name in ("read_buffer_entries", "write_buffer_entries",
                     "max_outstanding_reads_per_core"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.cache_channels <= 0 or self.mm_channels <= 0:
            raise ConfigError("channel counts must be positive")
        if self.cache_banks_per_channel <= 0 or self.mm_banks_per_channel <= 0:
            raise ConfigError("banks per channel must be positive")
        # Fail bad sweep configs fast: an inconsistent timing table
        # (e.g. tRCD > tRAS) otherwise simulates quiet nonsense.
        self.cache_timing.validate()
        self.mm_timing.validate()
        self.tag_timing.validate()

    @property
    def scale(self) -> float:
        """Geometry scale factor relative to the paper's 8 GiB cache."""
        return self.cache_capacity_bytes / PAPER_CACHE_BYTES

    @property
    def cache_blocks(self) -> int:
        return self.cache_capacity_bytes // 64

    def cache_geometry(self) -> DramGeometry:
        return DramGeometry.for_capacity(
            self.cache_capacity_bytes,
            channels=self.cache_channels,
            banks_per_channel=self.cache_banks_per_channel,
        )

    def mm_geometry(self) -> DramGeometry:
        return DramGeometry.for_capacity(
            self.mm_capacity_bytes,
            channels=self.mm_channels,
            banks_per_channel=self.mm_banks_per_channel,
        )

    def scaled_footprint_blocks(self, paper_footprint_bytes: int) -> int:
        """Scale a paper-sized workload footprint to this geometry."""
        blocks = int(paper_footprint_bytes * self.scale) // 64
        return max(64, blocks)

    def with_(self, **changes: object) -> "SystemConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)

    @classmethod
    def paper(cls) -> "SystemConfig":
        """The unscaled Table III configuration (8 GiB cache, 128 GiB DDR5)."""
        return cls(
            cache_capacity_bytes=8 * GIB,
            mm_capacity_bytes=128 * GIB,
        )

    @classmethod
    def small(cls) -> "SystemConfig":
        """A fast configuration for tests and examples (16 MiB cache)."""
        return cls(
            cache_capacity_bytes=16 * MIB,
            mm_capacity_bytes=16 * 16 * MIB,
        )
