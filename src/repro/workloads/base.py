"""Workload model: specs and demand-stream generators.

A workload is, to the DRAM cache, a per-core stream of post-LLC
demands: 64 B reads (LLC miss fetches) and 64 B writes (LLC
writebacks), with inter-demand gaps expressing memory intensity.

The paper runs real multithreaded NPB/GAPBS binaries under gem5; here
each kernel is modelled by a generator that reproduces its
*memory-system signature*: footprint, read/write mix, spatial locality
(sequential run lengths), temporal reuse (hot-set fraction and access
probability), and intensity. Footprints are specified against the
paper's 8 GiB cache and scaled with the configured geometry
(:meth:`repro.config.SystemConfig.scaled_footprint_blocks`), which
preserves each workload's hit/miss behaviour — the quantity every
figure in the evaluation is a function of.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.cache.request import Op
from repro.config.system import GIB, SystemConfig
from repro.errors import WorkloadError
from repro.sim.kernel import ns
from repro.sim.rng import Pcg64

#: One generated demand: (gap_ps before issue, op, block address, pc)
DemandRecord = Tuple[int, Op, int, int]


class MissClass(enum.Enum):
    """Fig. 1 grouping: below 30 % or above 50 % DRAM-cache miss ratio."""

    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class WorkloadSpec:
    """Memory-system signature of one benchmark configuration."""

    name: str                      #: e.g. "ft.D" or "pr.25"
    suite: str                     #: "npb" | "gapbs" | "synthetic"
    kernel: str                    #: e.g. "ft"
    variant: str                   #: NPB class or GAPBS scale
    paper_footprint_bytes: int     #: footprint at the paper's scale
    read_fraction: float           #: share of demands that are reads
    hot_fraction: float            #: fraction of footprint that is hot
    hot_probability: float         #: chance an access targets the hot set
    sequential_run: float          #: mean blocks per sequential run
    mean_gap_ns: float             #: mean inter-demand gap per core
    pc_count: int = 32             #: distinct instruction regions (MAP-I)
    miss_class: MissClass = MissClass.LOW

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: bad read_fraction")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: bad hot_fraction")
        if not 0.0 <= self.hot_probability <= 1.0:
            raise WorkloadError(f"{self.name}: bad hot_probability")
        if self.sequential_run < 1.0:
            raise WorkloadError(f"{self.name}: sequential_run must be >= 1")
        if self.paper_footprint_bytes < 64:
            raise WorkloadError(f"{self.name}: footprint too small")

    @property
    def footprint_gib(self) -> float:
        return self.paper_footprint_bytes / GIB

    def footprint_blocks(self, config: SystemConfig) -> int:
        return config.scaled_footprint_blocks(self.paper_footprint_bytes)


def mixture_stream(
    spec: WorkloadSpec,
    config: SystemConfig,
    core_id: int,
    cores: int,
    seed: int,
) -> Iterator[DemandRecord]:
    """The generic hot-set / streaming mixture generator.

    Models a thread that spends ``hot_probability`` of its accesses in
    a shared hot working set (reused data: small grids, frontier
    arrays) and the rest scanning its partition of the cold footprint
    (streaming sweeps, large matrices). Both components walk
    sequentially in runs of geometric length ``sequential_run``.
    """
    rng = Pcg64((seed * 1_000_003 + core_id) & 0x7FFFFFFF)
    footprint = spec.footprint_blocks(config)
    hot_blocks = max(16, int(footprint * spec.hot_fraction))
    # Cold region: each core scans its own partition to model the
    # partitioned parallel loops of OpenMP kernels.
    cold_span = max(16, footprint // cores)
    cold_base = (core_id * cold_span) % footprint
    random, integers, exponential = rng.random, rng.integers, rng.exponential
    hot_cursor = integers(hot_blocks)
    cold_cursor = integers(cold_span)
    run_continue = 1.0 - 1.0 / spec.sequential_run
    mean_gap_ps = ns(spec.mean_gap_ns)
    while True:
        in_hot = random() < spec.hot_probability
        if in_hot:
            if random() >= run_continue:
                hot_cursor = integers(hot_blocks)
            else:
                hot_cursor = (hot_cursor + 1) % hot_blocks
            block = hot_cursor
        else:
            if random() >= run_continue:
                cold_cursor = integers(cold_span)
            else:
                cold_cursor = (cold_cursor + 1) % cold_span
            block = (cold_base + cold_cursor) % footprint
        op = Op.READ if random() < spec.read_fraction else Op.WRITE
        gap = int(exponential(mean_gap_ps)) if mean_gap_ps > 0 else 0
        pc = integers(spec.pc_count) * 64 + (0 if in_hot else 8)
        yield gap, op, block, pc
