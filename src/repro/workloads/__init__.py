"""Workload specs and demand-stream generators (NPB, GAPBS, synthetic)."""

from repro.workloads.base import DemandRecord, MissClass, WorkloadSpec, mixture_stream
from repro.workloads.gapbs import GAPBS_KERNELS, gapbs_spec, gapbs_specs, gapbs_stream
from repro.workloads.npb import NPB_KERNELS, npb_spec, npb_specs, npb_stream
from repro.workloads.suite import (
    demand_stream,
    full_suite,
    miss_group,
    representative_suite,
    suite_by_name,
    workload,
)
from repro.workloads.synthetic import (
    hot_cold_spec,
    stream_spec,
    synthetic_stream,
    uniform_spec,
    write_storm_spec,
)

__all__ = [
    "DemandRecord",
    "MissClass",
    "WorkloadSpec",
    "mixture_stream",
    "GAPBS_KERNELS",
    "gapbs_spec",
    "gapbs_specs",
    "gapbs_stream",
    "NPB_KERNELS",
    "npb_spec",
    "npb_specs",
    "npb_stream",
    "demand_stream",
    "full_suite",
    "miss_group",
    "representative_suite",
    "suite_by_name",
    "workload",
    "hot_cold_spec",
    "stream_spec",
    "synthetic_stream",
    "uniform_spec",
    "write_storm_spec",
]
