"""Simple synthetic workloads for tests, examples and sensitivity studies."""

from __future__ import annotations

from typing import Iterator

from repro.cache.request import Op
from repro.config.system import GIB, SystemConfig
from repro.sim.kernel import ns
from repro.workloads.base import DemandRecord, MissClass, WorkloadSpec, mixture_stream


def uniform_spec(name: str = "uniform", footprint_gib: float = 16.0,
                 read_fraction: float = 0.7, mean_gap_ns: float = 8.0) -> WorkloadSpec:
    """Uniform random accesses over the footprint (worst-case locality)."""
    return WorkloadSpec(
        name=name,
        suite="synthetic",
        kernel="uniform",
        variant="-",
        paper_footprint_bytes=int(footprint_gib * GIB),
        read_fraction=read_fraction,
        hot_fraction=1.0,
        hot_probability=0.0,
        sequential_run=1.0,
        mean_gap_ns=mean_gap_ns,
        miss_class=MissClass.HIGH if footprint_gib > 8 else MissClass.LOW,
    )


def stream_spec(name: str = "stream", footprint_gib: float = 2.0,
                read_fraction: float = 0.6, mean_gap_ns: float = 4.0) -> WorkloadSpec:
    """Pure sequential streaming (STREAM-like copy/scale kernels)."""
    return WorkloadSpec(
        name=name,
        suite="synthetic",
        kernel="stream",
        variant="-",
        paper_footprint_bytes=int(footprint_gib * GIB),
        read_fraction=read_fraction,
        hot_fraction=1.0,
        hot_probability=0.0,
        sequential_run=256.0,
        mean_gap_ns=mean_gap_ns,
        miss_class=MissClass.LOW if footprint_gib <= 8 else MissClass.HIGH,
    )


def hot_cold_spec(name: str = "hot_cold", footprint_gib: float = 32.0,
                  hot_probability: float = 0.6, read_fraction: float = 0.7,
                  mean_gap_ns: float = 8.0) -> WorkloadSpec:
    """A tunable hot-set workload for miss-ratio sweeps."""
    return WorkloadSpec(
        name=name,
        suite="synthetic",
        kernel="hot_cold",
        variant="-",
        paper_footprint_bytes=int(footprint_gib * GIB),
        read_fraction=read_fraction,
        hot_fraction=0.05,
        hot_probability=hot_probability,
        sequential_run=8.0,
        mean_gap_ns=mean_gap_ns,
        miss_class=MissClass.HIGH,
    )


def write_storm_spec(name: str = "write_storm", footprint_gib: float = 32.0,
                     mean_gap_ns: float = 5.0) -> WorkloadSpec:
    """Write-dominated conflict traffic: stresses write-miss-dirty
    handling and the flush buffer (§V-E)."""
    return WorkloadSpec(
        name=name,
        suite="synthetic",
        kernel="write_storm",
        variant="-",
        paper_footprint_bytes=int(footprint_gib * GIB),
        read_fraction=0.3,
        hot_fraction=0.02,
        hot_probability=0.3,
        sequential_run=2.0,
        mean_gap_ns=mean_gap_ns,
        miss_class=MissClass.HIGH,
    )


def synthetic_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
                     cores: int, seed: int) -> Iterator[DemandRecord]:
    """All synthetic kernels use the generic mixture generator."""
    return mixture_stream(spec, config, core_id, cores, seed)
