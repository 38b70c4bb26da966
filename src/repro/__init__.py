"""TDRAM: a tag-enhanced DRAM cache simulator.

A from-scratch reproduction of *"Efficient Caching with A Tag-enhanced
DRAM"* (HPCA 2025): an event-driven, memory-system-accurate simulator
of HBM3-class DRAM caches, the TDRAM microarchitecture (on-die tag
mats, HM bus, ActRd/ActWr, flush buffer, early tag probing), the
evaluated baselines (Cascade Lake, Alloy, BEAR, NDC, Ideal, no-cache),
the NPB/GAPBS workload models, and a harness regenerating every table
and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import SystemConfig, run_experiment
>>> result = run_experiment("tdram", "ft.D", SystemConfig.small(),
...                         demands_per_core=500)
>>> result.tag_check_ns > 0
True
"""

from repro.cache import (
    DESIGNS,
    AlloyCache,
    BearCache,
    CascadeLakeCache,
    DemandRequest,
    IdealCache,
    MapIPredictor,
    NdcCache,
    NoCacheSystem,
    Op,
    Outcome,
    TagStore,
    TdramCache,
)
from repro.config import GIB, MIB, SystemConfig
from repro.dram import DramGeometry, DramTiming, TagTiming, hbm3_cache_timing
from repro.energy import EnergyModel
from repro.errors import (
    CapacityError,
    ConfigError,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.experiments.runner import RunResult, run_experiment
from repro.sim import Simulator, ns, to_ns
from repro.workloads import (
    WorkloadSpec,
    full_suite,
    representative_suite,
    workload,
)

__version__ = "1.0.0"

__all__ = [
    "DESIGNS",
    "AlloyCache",
    "BearCache",
    "CascadeLakeCache",
    "DemandRequest",
    "IdealCache",
    "MapIPredictor",
    "NdcCache",
    "NoCacheSystem",
    "Op",
    "Outcome",
    "TagStore",
    "TdramCache",
    "GIB",
    "MIB",
    "SystemConfig",
    "DramGeometry",
    "DramTiming",
    "TagTiming",
    "hbm3_cache_timing",
    "EnergyModel",
    "CapacityError",
    "ConfigError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    "RunResult",
    "run_experiment",
    "Simulator",
    "ns",
    "to_ns",
    "WorkloadSpec",
    "full_suite",
    "representative_suite",
    "workload",
    "__version__",
]
