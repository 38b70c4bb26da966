"""Pluggable backing-store backend tier behind the DRAM cache.

The paper evaluates TDRAM over a DDR5 backing store only; the backend
tier generalizes that single choice into a seam so the same cache
designs can be rerun over hybrid-memory media. A backend is anything
the cache controller can ``read``/``write`` 64 B blocks against; the
contract is :class:`MemoryBackend` and the implementations are:

* ``ddr5`` — the default open-page FR-FCFS DDR5 model
  (:mod:`repro.memory.main_memory`), whose results are pinned by the
  committed golden digests in ``tests/golden_runs.json``;
* ``pcm_like`` — asymmetric read/write timing, bounded MSHRs with read
  coalescing, a deferred write queue with tick-driven drain, and
  per-bank endurance/wear counters (:mod:`repro.memory.pcm`);
* ``cxl_like`` — a flat serialized link latency plus bandwidth credits
  (:mod:`repro.memory.cxl`).

Select one with ``SystemConfig(memory_backend=...)``; the knob (and
every per-backend timing knob) is a ``SystemConfig`` field, so it
participates in the campaign result-cache key automatically. The
contract, knob tables, and counters are documented in
``docs/backends.md``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import ConfigError
from repro.stats.counters import CounterSet

if TYPE_CHECKING:
    from repro.config.system import SystemConfig
    from repro.energy.power_model import EnergyMeter
    from repro.sim.kernel import Simulator

#: Valid ``SystemConfig.memory_backend`` values (checked at config
#: construction; :func:`build_backend` dispatches on the same names).
MEMORY_BACKENDS = ("ddr5", "pcm_like", "cxl_like")

#: Every counter/snapshot key a backend may expose through
#: :meth:`MemoryBackend.snapshot` (-> ``RunResult.backend`` and the
#: ``mm.backend.*`` rows of ``dump_stats``). The ``_COUNTERS`` suffix
#: makes this the SIM006 declaration registry for these names,
#: ``tests/test_backends.py`` requires backend snapshots to emit exactly
#: these names, and ``tools/check.py --only metrics`` requires a
#: ``docs/metrics.md`` row for each one.
BACKEND_COUNTERS = (
    "mshr_inserts",      # pcm: new MSHR allocated for a read
    "mshr_coalesced",    # pcm: read merged into an in-flight MSHR
    "mshr_stalls",       # pcm: read deferred because the MSHR file was full
    "wq_inserts",        # pcm: write accepted into the deferred write queue
    "wq_stalls",         # pcm: write arrived with the queue at capacity
    "wq_drains",         # pcm: deferred write issued to a bank
    "wq_read_forwards",  # pcm: read served from the deferred write queue
    "wear_writes",       # pcm: bank array writes (measured region)
    "wear_total",        # pcm: lifetime array writes, all banks (snapshot)
    "wear_max",          # pcm: lifetime array writes, hottest bank (snapshot)
    "link_grants",       # cxl: 64 B transfers granted on the serialized link
    "credit_stalls",     # cxl: arrivals that found no free request credit
)


class MemoryBackend(abc.ABC):
    """Contract every backing-store model implements.

    The cache controller (and the no-cache shim) only ever call
    :meth:`read`, :meth:`write`, and the introspection methods below —
    nothing else — so a backend is free to model its medium however it
    likes as long as reads invoke ``callback(finish_time)`` through the
    simulator and writes are posted. All times are integer picoseconds
    on the shared :class:`~repro.sim.kernel.Simulator`.
    """

    #: registry name (``SystemConfig.memory_backend`` value)
    backend_name = "abstract"

    def __init__(self, sim: "Simulator",
                 meter: Optional["EnergyMeter"] = None) -> None:
        self.sim = sim
        self.meter = meter
        #: backend event counters (names drawn from BACKEND_COUNTERS);
        #: reset at the warm-up boundary by :meth:`reset_measurement`
        self.counters = CounterSet()
        #: read()/write() calls over the whole run (never reset)
        self.reads_issued = 0
        self.writes_issued = 0

    # ------------------------------------------------------------------
    # The data path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def read(self, block_addr: int,
             callback: Optional[Callable[[int], None]],
             order: Optional[int] = None) -> None:
        """Fetch one 64 B block; ``callback(finish_time)`` fires on data.

        ``order`` carries the originating demand's age (sequence
        number) for age-aware scheduling; backends without an age-aware
        scheduler may ignore it.
        """

    @abc.abstractmethod
    def write(self, block_addr: int) -> None:
        """Posted 64 B write (cache writeback or write-through demand)."""

    # ------------------------------------------------------------------
    # Introspection (runner / dump / epochs / no-cache shim)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pending(self) -> int:
        """Requests queued or in flight anywhere in the backend."""

    @abc.abstractmethod
    def pending_writes(self) -> int:
        """Writes not yet issued to the medium (back-pressure signal)."""

    @property
    @abc.abstractmethod
    def mean_read_latency_ns(self) -> float:
        """Mean read latency (arrival to data), nanoseconds."""

    @property
    @abc.abstractmethod
    def read_queue_delay_ns(self) -> float:
        """Mean read queueing delay (arrival to issue), nanoseconds."""

    def reset_measurement(self) -> None:
        """Drop warm-up statistics at the measurement boundary.

        Called by the experiment runner in the same kernel callback
        that resets the cache metrics. Lifetime state (wear, issue
        totals) survives; subclasses extend this to reset their
        latency accumulators.
        """
        self.counters.reset()

    def mshr_occupancy(self) -> int:
        """In-flight coalescing entries (0 for backends without MSHRs)."""
        return 0

    def write_queue_len(self) -> int:
        """Depth of the deferred/pending write queue."""
        return self.pending_writes()

    def wear_summary(self) -> Dict[str, int]:
        """Lifetime endurance counters (empty for wear-free media)."""
        return {}

    def snapshot(self) -> Dict[str, int]:
        """Counter dict exported as ``RunResult.backend``.

        Combines the measured-region event counters with the lifetime
        wear summary; empty for the DDR5 backend, so ``RunResult.backend``
        adds nothing to its golden digests.
        """
        snap = self.counters.as_dict()
        snap.update(self.wear_summary())
        return snap


def build_backend(sim: "Simulator", config: "SystemConfig",
                  meter: Optional["EnergyMeter"] = None) -> MemoryBackend:
    """Construct the backend ``config.memory_backend`` selects.

    The experiment runner calls this instead of instantiating
    :class:`~repro.memory.main_memory.MainMemory` directly; imports are
    lazy so the registry module stays import-cycle-free (the config
    package validates against :data:`MEMORY_BACKENDS` at construction).
    """
    name = config.memory_backend
    if name == "ddr5":
        from repro.memory.main_memory import MainMemory

        return MainMemory(sim, config.mm_timing, config.mm_geometry(),
                          meter=meter)
    if name == "pcm_like":
        from repro.memory.pcm import PcmBackend

        return PcmBackend(sim, config, meter=meter)
    if name == "cxl_like":
        from repro.memory.cxl import CxlBackend

        return CxlBackend(sim, config, meter=meter)
    raise ConfigError(
        f"unknown memory_backend {name!r}; choose from {MEMORY_BACKENDS}")
