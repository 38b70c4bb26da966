"""NAS Parallel Benchmark (NPB) workload models, classes C and D (§IV-B).

Each kernel gets a generator reproducing its characteristic post-LLC
access pattern; footprints follow the published NPB memory sizes
(class C fits the 8 GiB cache -> low miss ratio; class D exceeds it ->
high miss ratio, matching Fig. 1's grouping).

Kernel signatures modelled:

* **bt/sp/lu** — block-structured 3D stencil sweeps: long sequential
  runs over the thread's partition with strong reuse of recent planes;
* **cg** — conjugate gradient: sequential vector traffic plus random
  gathers over a large sparse matrix;
* **ft** — 3D FFT: sequential reads, large-stride transpose writes
  across the whole footprint (write-heavy, little reuse -> the paper's
  poster child for wasted tag-check data movement);
* **is** — integer sort: sequential key reads with random bucket
  scatter writes;
* **mg** — multigrid V-cycles over a hierarchy of grids (mixed stride);
* **ua** — unstructured adaptive mesh: irregular, pointer-chasing-like
  accesses with a modest hot set.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.cache.request import Op
from repro.config.system import GIB, MIB, SystemConfig
from repro.errors import WorkloadError
from repro.sim.kernel import ns
from repro.sim.rng import Pcg64
from repro.workloads.base import DemandRecord, MissClass, WorkloadSpec, mixture_stream

NPB_KERNELS = ("bt", "cg", "ft", "is", "lu", "mg", "sp", "ua")

#: Approximate resident footprints (bytes) of NPB classes C and D.
_FOOTPRINTS: Dict[str, Dict[str, int]] = {
    "bt": {"C": int(1.7 * GIB), "D": 40 * GIB},
    "cg": {"C": int(0.9 * GIB), "D": 24 * GIB},
    "ft": {"C": 5 * GIB, "D": 80 * GIB},
    "is": {"C": 1 * GIB, "D": 33 * GIB},
    "lu": {"C": int(0.6 * GIB), "D": 24 * GIB},
    "mg": {"C": int(3.4 * GIB), "D": 27 * GIB},
    "sp": {"C": int(1.6 * GIB), "D": 24 * GIB},
    "ua": {"C": int(0.5 * GIB), "D": 26 * GIB},
}

#: (read_fraction, hot_fraction, hot_probability, sequential_run, gap_ns)
_SIGNATURES: Dict[str, tuple] = {
    "bt": (0.72, 0.08, 0.55, 48.0, 15.0),
    "cg": (0.85, 0.04, 0.45, 8.0, 13.0),
    "ft": (0.65, 0.03, 0.20, 24.0, 13.0),
    "is": (0.65, 0.05, 0.25, 12.0, 13.0),
    "lu": (0.70, 0.10, 0.60, 40.0, 15.0),
    "mg": (0.65, 0.05, 0.30, 28.0, 13.0),
    "sp": (0.70, 0.08, 0.55, 44.0, 15.0),
    "ua": (0.68, 0.06, 0.40, 6.0, 14.0),
}


def npb_spec(kernel: str, variant: str) -> WorkloadSpec:
    """Build the :class:`WorkloadSpec` for an NPB kernel and class."""
    if kernel not in _FOOTPRINTS:
        raise WorkloadError(f"unknown NPB kernel {kernel!r}")
    if variant not in ("C", "D"):
        raise WorkloadError(f"unknown NPB class {variant!r}")
    read_frac, hot_frac, hot_prob, run, gap = _SIGNATURES[kernel]
    footprint = _FOOTPRINTS[kernel][variant]
    # Class C working sets mostly fit the cache: effectively all accesses
    # land in resident data, so treat the whole footprint as "hot".
    miss_class = MissClass.LOW if footprint <= 8 * GIB else MissClass.HIGH
    if miss_class is MissClass.LOW:
        hot_frac, hot_prob = 1.0, 1.0
    else:
        # Class D: the short-term reuse that exists is captured by the
        # 512 KB private caches and never reaches the DRAM cache, so the
        # post-L2 stream is nearly reuse-free; cores also slow down
        # (memory-starved), lowering per-core demand intensity.
        hot_prob = min(hot_prob, 0.15)
        gap *= 2.0
    return WorkloadSpec(
        name=f"{kernel}.{variant}",
        suite="npb",
        kernel=kernel,
        variant=variant,
        paper_footprint_bytes=footprint,
        read_fraction=read_frac,
        hot_fraction=hot_frac,
        hot_probability=hot_prob,
        sequential_run=run,
        mean_gap_ns=gap,
        miss_class=miss_class,
    )


def npb_specs() -> List[WorkloadSpec]:
    """All 16 NPB workloads (8 kernels x classes C, D)."""
    return [npb_spec(kernel, variant)
            for kernel in NPB_KERNELS for variant in ("C", "D")]


# ---------------------------------------------------------------------------
# Kernel-specific generators
# ---------------------------------------------------------------------------
def ft_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
              cores: int, seed: int) -> Iterator[DemandRecord]:
    """FT: sequential read sweep + large-stride transpose writes.

    The transpose writes scatter across the whole footprint with a
    plane-sized stride, defeating both spatial and temporal locality —
    the write-miss-clean traffic that Figures 3/13 highlight.
    """
    rng = Pcg64((seed * 7_368_787 + core_id) & 0x7FFFFFFF)
    footprint = spec.footprint_blocks(config)
    span = max(64, footprint // cores)
    base = (core_id * span) % footprint
    stride = max(64, footprint // 512)  # plane-sized transpose stride
    integers, exponential = rng.integers, rng.exponential
    cursor = 0
    write_cursor = integers(footprint)
    gap_ps = ns(spec.mean_gap_ns)
    while True:
        # A run of sequential reads from this core's pencil...
        run = rng.geometric(1.0 / spec.sequential_run)
        for _ in range(max(1, run)):
            block = (base + cursor) % footprint
            cursor = (cursor + 1) % span
            pc = 0
            yield int(exponential(gap_ps)), Op.READ, block, pc
        # ...then the transposed writes land a stride apart.
        writes = max(1, int(run * (1.0 - spec.read_fraction) /
                            max(spec.read_fraction, 0.05)))
        for _ in range(writes):
            write_cursor = (write_cursor + stride + integers(8)) % footprint
            yield int(exponential(gap_ps)), Op.WRITE, write_cursor, 64


def is_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
              cores: int, seed: int) -> Iterator[DemandRecord]:
    """IS: sequential key reads + uniformly random bucket scatters."""
    rng = Pcg64((seed * 9_999_991 + core_id) & 0x7FFFFFFF)
    footprint = spec.footprint_blocks(config)
    keys_span = max(64, footprint // (2 * cores))
    keys_base = (core_id * keys_span) % footprint
    bucket_base = footprint // 2
    bucket_span = max(64, footprint - bucket_base)
    random, integers, exponential = rng.random, rng.integers, rng.exponential
    cursor = 0
    gap_ps = ns(spec.mean_gap_ns)
    while True:
        block = (keys_base + cursor) % max(1, footprint // 2)
        cursor = (cursor + 1) % keys_span
        yield int(exponential(gap_ps)), Op.READ, block, 0
        if random() < (1.0 - spec.read_fraction) / max(spec.read_fraction, 0.05):
            scatter = bucket_base + integers(bucket_span)
            yield int(exponential(gap_ps)), Op.WRITE, scatter, 64


def cg_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
              cores: int, seed: int) -> Iterator[DemandRecord]:
    """CG: hot vector traffic + random gathers over the sparse matrix."""
    rng = Pcg64((seed * 15_485_863 + core_id) & 0x7FFFFFFF)
    footprint = spec.footprint_blocks(config)
    vector_span = max(64, int(footprint * spec.hot_fraction))
    matrix_span = max(64, footprint - vector_span)
    random, integers, exponential = rng.random, rng.integers, rng.exponential
    cursor = integers(vector_span)
    gap_ps = ns(spec.mean_gap_ns)
    while True:
        roll = random()
        if roll < spec.hot_probability:
            cursor = (cursor + 1) % vector_span
            op = Op.READ if random() < 0.8 else Op.WRITE
            yield int(exponential(gap_ps)), op, cursor, 0
        else:
            gather = vector_span + integers(matrix_span)
            yield int(exponential(gap_ps)), Op.READ, gather % footprint, 64


_KERNEL_STREAMS = {
    "ft": ft_stream,
    "is": is_stream,
    "cg": cg_stream,
}


def npb_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
               cores: int, seed: int) -> Iterator[DemandRecord]:
    """Per-core demand stream for an NPB workload."""
    factory = _KERNEL_STREAMS.get(spec.kernel)
    if factory is not None and spec.miss_class is MissClass.HIGH:
        return factory(spec, config, core_id, cores, seed)
    return mixture_stream(spec, config, core_id, cores, seed)
