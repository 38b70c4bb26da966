"""The paper's 28-workload evaluation suite (§IV-B).

8 NPB kernels x {class C, class D} + 6 GAPBS kernels x {scale 22,
scale 25} = 28 workloads, grouped by DRAM-cache miss ratio: below 30 %
("low") or above 50 % ("high") — the paper finds none in between.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.config.system import SystemConfig
from repro.errors import WorkloadError
from repro.workloads.base import DemandRecord, MissClass, WorkloadSpec
from repro.workloads.gapbs import gapbs_specs, gapbs_stream
from repro.workloads.npb import npb_specs, npb_stream
from repro.workloads.synthetic import (
    hot_cold_spec,
    stream_spec,
    synthetic_stream,
    uniform_spec,
    write_storm_spec,
)

_STREAMS = {
    "npb": npb_stream,
    "gapbs": gapbs_stream,
    "synthetic": synthetic_stream,
}


def full_suite() -> List[WorkloadSpec]:
    """All 28 evaluation workloads, NPB first then GAPBS."""
    return npb_specs() + gapbs_specs()


def suite_by_name() -> Dict[str, WorkloadSpec]:
    return {spec.name: spec for spec in full_suite()}


def synthetic_workloads() -> Dict[str, WorkloadSpec]:
    """Named synthetic microbenchmarks (outside the 28-workload suite).

    ``"synthetic"`` is the generic default — a hot/cold mix exercising
    hits, misses, and writebacks — used by ``tdram-repro trace``.
    """
    return {
        "synthetic": hot_cold_spec(name="synthetic"),
        "uniform": uniform_spec(),
        "stream": stream_spec(),
        "hot_cold": hot_cold_spec(),
        "write_storm": write_storm_spec(),
    }


def workload(name: str) -> WorkloadSpec:
    """Look up a suite workload or a named synthetic one, e.g.
    ``workload("ft.D")`` or ``workload("write_storm")``."""
    table = suite_by_name()
    if name in table:
        return table[name]
    synthetic = synthetic_workloads()
    if name in synthetic:
        return synthetic[name]
    raise WorkloadError(
        f"unknown workload {name!r}; choose from "
        f"{sorted(table) + sorted(synthetic)}"
    )


#: The older name of :func:`workload`, kept for callers that import it.
any_workload = workload


def miss_group(specs: Optional[List[WorkloadSpec]] = None,
               group: MissClass = MissClass.LOW) -> List[WorkloadSpec]:
    """Filter a suite by its expected miss-ratio group."""
    specs = full_suite() if specs is None else specs
    return [spec for spec in specs if spec.miss_class is group]


def representative_suite() -> List[WorkloadSpec]:
    """A small, fast subset spanning both miss groups and both suites.

    Used by the default benchmark targets; pass ``--full-suite`` (or
    call :func:`full_suite`) for the complete 28-workload sweep.
    """
    names = ["lu.C", "cg.C", "bfs.22", "ft.D", "is.D", "pr.25"]
    table = suite_by_name()
    return [table[name] for name in names]


def suite_summary():
    """A printable table of all 28 workload specifications."""
    from repro.experiments.figures import FigureResult

    rows = []
    for spec in full_suite():
        rows.append({
            "workload": spec.name,
            "suite": spec.suite,
            "footprint_gib": round(spec.footprint_gib, 2),
            "reads": round(spec.read_fraction, 2),
            "gap_ns": round(spec.mean_gap_ns, 1),
            "group": spec.miss_class.value,
        })
    return FigureResult(
        figure="Suite",
        title="The 28 evaluation workloads (§IV-B)",
        columns=["workload", "suite", "footprint_gib", "reads", "gap_ns",
                 "group"],
        rows=rows,
    )


def demand_stream(spec: WorkloadSpec, config: SystemConfig, core_id: int,
                  cores: int, seed: int = 42) -> Iterator[DemandRecord]:
    """Instantiate the per-core generator for any workload spec."""
    factory = _STREAMS.get(spec.suite)
    if factory is None:
        raise WorkloadError(f"no stream factory for suite {spec.suite!r}")
    return factory(spec, config, core_id, cores, seed)
