"""Gemini-style hybrid-mapped DRAM cache (PAPERS.md, arXiv:1806.00779).

Gemini's observation: direct-mapped DRAM caches hit fast (no set
search, no way mux) but thrash on conflicts, while set-associative
caches tolerate conflicts at a per-access search cost. The hybrid
splits the frame pool — a direct-mapped *hot region* and a
set-associative *cold region* — and migrates lines between them by
observed reuse: a block whose demand count reaches
``gemini_hot_threshold`` is promoted to the direct region, so the hot
working set enjoys direct-mapped latency while cold conflict traffic
spreads over associative sets.

Built on the organization seam: the layout is a
:class:`~repro.cache.organization.HybridMappingOrganization` whose
``is_hot`` predicate reads this controller's hotness table, and the
timing side charges ``gemini_assoc_probe_ns`` extra on cold-region
tag resolutions (:meth:`TagStore.probe_cost_ps`). Everything else
(tags-in-ECC transactions) is inherited from the Cascade Lake model —
the comparison isolates the *mapping*, not the device.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.organization import HybridMappingOrganization
from repro.cache.request import DemandRequest
from repro.cache.tagstore import TagStore
from repro.config.system import SystemConfig
from repro.dram.address import DramGeometry
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator, ns


class GeminiHybridCache(CascadeLakeCache):
    """Hot lines direct-mapped, cold lines set-associative."""

    design_name = "gemini_hybrid"
    burst_bytes = 64
    has_tag_path = False

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        # The hotness table must exist before the base constructor runs:
        # _build_tag_store hands the organization a live reference to it.
        self._hot: Set[int] = set()
        self._heat: Dict[int, int] = {}
        super().__init__(sim, config, main_memory)

    def _build_tag_store(self, geometry: DramGeometry) -> TagStore:
        config = self.config
        organization = HybridMappingOrganization(
            geometry.total_blocks,
            direct_fraction=config.gemini_direct_fraction,
            assoc_ways=config.gemini_assoc_ways,
            assoc_probe_ps=ns(config.gemini_assoc_probe_ns),
            is_hot=self._hot.__contains__,
        )
        return TagStore(geometry.total_blocks, config.gemini_assoc_ways,
                        organization=organization)

    # ------------------------------------------------------------------
    def _enqueue(self, request: DemandRequest) -> None:
        block = request.block_addr
        if block not in self._hot:
            count = self._heat.get(block, 0) + 1
            if count >= self.config.gemini_hot_threshold:
                self._promote(block)
            else:
                self._heat[block] = count
        super()._enqueue(request)

    def _promote(self, block: int) -> None:
        """Reclassify ``block`` as hot (remapping it to the direct region).

        The organization resolves ``is_hot`` at every ``set_index``
        call, so any copy resident in the cold region must be migrated
        out *before* the hotness table flips — otherwise it would
        become unreachable and its dirty data lost.
        """
        if self.tags.contains(block):
            if self.tags.is_dirty(block):
                self._writeback(block)
            self.tags.invalidate(block)
            self.metrics.events.add("gemini_migrations")
        self._hot.add(block)
        self._heat.pop(block, None)
        self.metrics.events.add("gemini_promotions")

    # ------------------------------------------------------------------
    def _on_tag_data(self, channel_idx: int, demand: DemandRequest,
                     time: int) -> None:
        # Cold-region sets pay the associative search on top of the
        # DRAM access that returned tag+data; direct-region cost is 0.
        penalty = self.tags.probe_cost_ps(demand.block_addr)
        if penalty:
            self.metrics.events.add("gemini_assoc_probes")
        super()._on_tag_data(channel_idx, demand, time + penalty)
