"""Demand request and access-outcome types shared by all cache designs."""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional


class Op(enum.Enum):
    """Demand type as seen by the DRAM cache (post-LLC)."""

    READ = "read"      #: LLC fetch (on-chip miss) — latency critical
    WRITE = "write"    #: LLC writeback of a full 64 B line — posted


class Outcome(enum.Enum):
    """Architectural outcome of a cache access (Table II rows).

    Each member carries its derived facts as plain attributes, set once
    when the class is built: reading one is an instance-dict lookup,
    where a property on an enum costs a Python call per read. Among
    them is the access's Fig. 1 category (one of
    :data:`repro.cache.metrics.BREAKDOWN_CATEGORIES`) for a read and
    for a write. Misses to invalid frames are grouped with clean
    misses: no victim data is at stake either way.
    """

    HIT_CLEAN = "hit_clean"
    HIT_DIRTY = "hit_dirty"
    MISS_INVALID = "miss_invalid"   #: frame empty
    MISS_CLEAN = "miss_clean"       #: conflicting clean line present
    MISS_DIRTY = "miss_dirty"       #: conflicting dirty line present

    #: a hit, clean or dirty
    is_hit: bool
    #: Fig. 1 category of a read / a write with this outcome
    read_category: str
    write_category: str

    def __init__(self, value: str) -> None:
        self.is_hit = value.startswith("hit_")
        suffix = ("hit" if self.is_hit
                  else "miss_dirty" if value == "miss_dirty"
                  else "miss_clean")
        self.read_category = "read_" + suffix
        self.write_category = "write_" + suffix


_sequence = itertools.count()


class DemandRequest:
    """One 64 B demand travelling through the memory system.

    A ``__slots__`` class: one instance is allocated per demand on the
    simulation hot path, so the per-object ``__dict__`` is worth
    avoiding.
    """

    __slots__ = ("op", "block_addr", "core_id", "pc", "seq", "arrive_time",
                 "on_complete", "tag_result_time", "issue_time", "probed",
                 "completed")

    def __init__(self, op: Op, block_addr: int, core_id: int = 0,
                 pc: int = 0,
                 on_complete: Optional[Callable[[int], None]] = None) -> None:
        self.op = op
        self.block_addr = block_addr
        self.core_id = core_id
        #: synthetic instruction address (region id) for MAP-I prediction
        self.pc = pc
        self.seq = next(_sequence)
        #: set by the controller when the demand enters its queues
        self.arrive_time = -1
        #: completion callback (front end wiring); receives finish time
        self.on_complete = on_complete
        # design bookkeeping
        self.tag_result_time = -1  #: when hit/miss became known at controller
        self.issue_time = -1       #: first DRAM-cache action for this demand
        self.probed = False        #: TDRAM early-probe already answered it
        self.completed = False

    def complete(self, time: int) -> None:
        """Deliver the response to the front end (idempotent)."""
        if self.completed:
            return
        self.completed = True
        if self.on_complete is not None:
            self.on_complete(time)

    def __repr__(self) -> str:
        return f"DemandRequest({self.op.value}, blk={self.block_addr:#x}, seq={self.seq})"
