"""Stride prefetcher for the DRAM cache (§V-D's prefetcher discussion).

The paper's preliminary analysis finds prefetchers give only
*incremental* gains at the DRAM-cache level: they interfere with demand
accesses, consume bandwidth and buffers, and add tail latency when
accuracy is low. This reference-point implementation — a classic
PC-indexed stride detector driving degree-N prefetch fills — lets the
`prefetcher_study` quantify exactly that trade-off in this model.

A table entry tracks the last block and last stride per instruction
region; two consecutive accesses with the same stride arm the entry,
and an armed entry emits ``degree`` prefetch candidates ahead of the
demand. Prefetch fetches travel the normal fill path (main-memory read
plus cache fill) but belong to no demand, so a useless prefetch is pure
bandwidth bloat — precisely the hazard the paper warns about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.errors import ConfigError
from repro.stats.counters import CounterSet


@dataclass
class _StrideEntry:
    last_block: int
    stride: int
    confident: bool


class StridePrefetcher:
    """PC-indexed stride detector with configurable degree."""

    def __init__(self, table_size: int = 256, degree: int = 2,
                 max_stride: int = 64) -> None:
        if table_size <= 0 or table_size & (table_size - 1):
            raise ConfigError("table_size must be a positive power of two")
        if degree < 1:
            raise ConfigError("degree must be >= 1")
        if max_stride < 1:
            raise ConfigError("max_stride must be >= 1")
        self.table_size = table_size
        self.degree = degree
        self.max_stride = max_stride
        self._table: Dict[int, _StrideEntry] = {}
        self._outstanding: Set[int] = set()
        self.stats = CounterSet()

    def _index(self, pc: int) -> int:
        return (pc ^ (pc >> 7)) % self.table_size

    # ------------------------------------------------------------------
    def observe(self, pc: int, block: int) -> List[int]:
        """Train on a demand read; returns blocks to prefetch."""
        index = self._index(pc)
        entry = self._table.get(index)
        candidates: List[int] = []
        if entry is None:
            self._table[index] = _StrideEntry(block, 0, False)
            return candidates
        stride = block - entry.last_block
        if stride != 0 and stride == entry.stride and \
                abs(stride) <= self.max_stride:
            # Second occurrence of the same stride: steady state.
            entry.confident = True
            candidates = [block + stride * i
                          for i in range(1, self.degree + 1)
                          if block + stride * i >= 0]
        else:
            entry.confident = False
        entry.stride = stride
        entry.last_block = block
        fresh = [c for c in candidates if c not in self._outstanding]
        self._outstanding.update(fresh)
        self.stats.add("prefetches", len(fresh))
        return fresh

    # ------------------------------------------------------------------
    def note_demand_hit(self, block: int) -> bool:
        """A demand touched ``block``; was it one we prefetched?"""
        if block in self._outstanding:
            self._outstanding.discard(block)
            self.stats.add("useful")
            return True
        return False

    @property
    def issued(self) -> int:
        return self.stats["prefetches"]
