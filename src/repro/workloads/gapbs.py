"""GAP Benchmark Suite (GAPBS) workload models, scales 22 and 25 (§IV-B).

The paper runs the six GAPBS kernels on synthetic Kronecker/uniform
graphs with scales 22 (~4 M vertices, fits the cache -> low miss) and
25 (~33 M vertices, several times the cache -> high miss).

The generator models a CSR layout: a vertex region (offsets + per-
vertex properties, ~20 % of the footprint) and an edge region (~80 %).
A step visits a vertex, streams a power-law-distributed run of its
edges sequentially, and performs a random property gather per few
edges — the irregular access that makes graph analytics miss-heavy.
Kernels differ in their property write traffic (pr/sssp/bc update
scores; bfs/cc mark labels; tc is read-only) and scan/gather balance.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.cache.request import Op
from repro.config.system import GIB, SystemConfig
from repro.errors import WorkloadError
from repro.sim.kernel import ns
from repro.sim.rng import Pcg64
from repro.workloads.base import DemandRecord, MissClass, WorkloadSpec

GAPBS_KERNELS = ("bc", "bfs", "cc", "pr", "sssp", "tc")

#: Approximate footprints: scale-22 Kronecker ~0.6 GiB, scale-25 ~10-20 GiB
#: (edges dominate; kernels with auxiliary state run larger).
_FOOTPRINTS: Dict[str, Dict[str, int]] = {
    "bc": {"22": int(0.8 * GIB), "25": 40 * GIB},
    "bfs": {"22": int(0.6 * GIB), "25": 28 * GIB},
    "cc": {"22": int(0.6 * GIB), "25": 34 * GIB},
    "pr": {"22": int(0.7 * GIB), "25": 34 * GIB},
    "sssp": {"22": int(1.0 * GIB), "25": 48 * GIB},
    "tc": {"22": int(0.7 * GIB), "25": 34 * GIB},
}

#: (write_fraction_of_property_ops, gather_per_edges, scan_weight, gap_ns)
_SIGNATURES: Dict[str, tuple] = {
    "bc": (0.25, 1, 0.5, 13.0),
    "bfs": (0.20, 1, 0.4, 14.0),
    "cc": (0.22, 1, 0.5, 14.0),
    "pr": (0.30, 1, 0.6, 12.0),
    "sssp": (0.25, 1, 0.4, 13.0),
    "tc": (0.02, 0, 0.9, 12.0),
}


def gapbs_spec(kernel: str, scale: str) -> WorkloadSpec:
    """Build the :class:`WorkloadSpec` for a GAPBS kernel and scale."""
    if kernel not in _FOOTPRINTS:
        raise WorkloadError(f"unknown GAPBS kernel {kernel!r}")
    if scale not in ("22", "25"):
        raise WorkloadError(f"unknown GAPBS scale {scale!r}")
    write_frac, _gather, scan_weight, gap = _SIGNATURES[kernel]
    footprint = _FOOTPRINTS[kernel][scale]
    miss_class = MissClass.LOW if footprint <= 8 * GIB else MissClass.HIGH
    if miss_class is MissClass.HIGH:
        gap *= 2.0
    # Aggregate read fraction: edge scans are reads; property ops mix.
    read_fraction = 1.0 - (1.0 - scan_weight) * write_frac
    return WorkloadSpec(
        name=f"{kernel}.{scale}",
        suite="gapbs",
        kernel=kernel,
        variant=scale,
        paper_footprint_bytes=footprint,
        read_fraction=read_fraction,
        hot_fraction=0.2,            # vertex/property region
        hot_probability=0.45,
        sequential_run=8.0,
        mean_gap_ns=gap,
        miss_class=miss_class,
    )


def gapbs_specs() -> List[WorkloadSpec]:
    """All 12 GAPBS workloads (6 kernels x scales 22, 25)."""
    return [gapbs_spec(kernel, scale)
            for kernel in GAPBS_KERNELS for scale in ("22", "25")]


def gapbs_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
                 cores: int, seed: int) -> Iterator[DemandRecord]:
    """Per-core CSR traversal stream for a GAPBS workload."""
    write_frac, gather_per_edges, scan_weight, gap_ns_mean = _SIGNATURES[spec.kernel]
    gap_ns_mean = spec.mean_gap_ns
    rng = Pcg64((seed * 32_452_843 + core_id) & 0x7FFFFFFF)
    footprint = spec.footprint_blocks(config)
    vertex_span = max(64, footprint // 5)        # offsets + properties
    edge_base = vertex_span
    edge_span = max(64, footprint - vertex_span)
    random, integers, exponential = rng.random, rng.integers, rng.exponential
    gap_ps = ns(gap_ns_mean)
    edge_cursor = integers(edge_span)
    while True:
        # Visit a vertex: offsets + its property (vertex region, reused).
        vertex = integers(vertex_span)
        yield int(exponential(gap_ps)), Op.READ, vertex, 0
        # Stream this vertex's adjacency list: power-law degree. Edge
        # traffic dominates graph kernels (the CSR edge array is several
        # times the vertex data), so most post-LLC accesses land there.
        degree = min(512, int(rng.pareto(1.4)) + 8)
        edge_blocks = max(2, degree // 4)
        if random() < scan_weight:
            edge_cursor = integers(edge_span)
        for i in range(edge_blocks):
            block = edge_base + (edge_cursor + i) % edge_span
            yield int(exponential(gap_ps)), Op.READ, block, 8
            # Gather neighbour properties: the random part (but the
            # property arrays are mostly cache-resident).
            if i % 4 == 0:
                for _ in range(gather_per_edges):
                    neighbour = integers(vertex_span)
                    if random() < write_frac:
                        yield (int(exponential(gap_ps)), Op.WRITE,
                               neighbour, 16)
                    else:
                        yield (int(exponential(gap_ps)), Op.READ,
                               neighbour, 16)
        edge_cursor = (edge_cursor + edge_blocks) % edge_span
