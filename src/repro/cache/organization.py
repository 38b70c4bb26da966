"""Pluggable cache organization + replacement framework (the design zoo).

:class:`~repro.cache.tagstore.TagStore` is the *mechanism* — a
materialised-on-touch array of tag lines. What used to be hard-coded
inside it is split into two seams the store composes:

* :class:`Organization` — *where* a block may live: set indexing, the
  way count of each set, and a probe-cost model (extra latency a
  controller pays to search that set's tags);
* :class:`ReplacementPolicy` — *which* resident line leaves on a
  conflict, plus touch/install/evict hooks that let a policy mirror
  residency into side structures (TicToc's SRAM tag cache and
  dirty-region list are exactly such mirrors).

The default pairing — :class:`SetAssociativeOrganization` +
:class:`LruPolicy` — encodes LRU as list order (index 0 = LRU, last =
MRU); the committed golden digests pin every design's results through
it, and ``tests/test_tagstore.py`` pins its victim and eviction order.
New designs plug in here: Gemini's hybrid mapping is an
:class:`Organization`, TicToc's mirrored SRAM structures ride a
:class:`ReplacementPolicy` (see ``docs/design-zoo.md``).
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # runtime import would be circular (tagstore imports us)
    from repro.cache.tagstore import _Line


# ---------------------------------------------------------------------------
# Organization seam
# ---------------------------------------------------------------------------
class Organization(abc.ABC):
    """Where a block may live: set indexing / way mapping / probe cost."""

    #: modulo indexing with one way count everywhere — lets the store
    #: use the ``block % num_sets`` fast path and lazy range prewarm
    uniform: bool = False
    num_sets: int = 0

    @abc.abstractmethod
    def set_index(self, block: int) -> int:
        """Set that ``block`` maps to (may depend on mutable state such
        as Gemini's hotness table — resolved at call time)."""

    @abc.abstractmethod
    def ways_of(self, set_idx: int) -> int:
        """Way count of one set (non-uniform organizations vary it)."""

    def probe_cost_ps(self, set_idx: int) -> int:
        """Extra latency (ps) a controller pays to search this set's
        tags beyond the design's base tag access."""
        return 0


class SetAssociativeOrganization(Organization):
    """The classic layout: ``num_frames // ways`` sets, modulo-indexed.

    ``ways=1`` is the paper's direct-mapped configuration.
    """

    uniform = True

    def __init__(self, num_frames: int, ways: int = 1) -> None:
        if num_frames <= 0:
            raise ConfigError("num_frames must be positive")
        if ways <= 0 or num_frames % ways:
            raise ConfigError(f"ways={ways} must divide num_frames={num_frames}")
        self.num_frames = num_frames
        self.ways = ways
        self.num_sets = num_frames // ways

    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def ways_of(self, set_idx: int) -> int:
        return self.ways


class HybridMappingOrganization(Organization):
    """Gemini-style hybrid mapping (PAPERS.md, arXiv:1806.00779).

    The frame pool is split into a *direct-mapped region* (1-way sets:
    lowest hit latency, no set search) and a *set-associative region*
    (``assoc_ways``-way sets: conflict tolerance at an extra per-probe
    search cost). A caller-supplied ``is_hot`` predicate routes hot
    blocks to the direct region and cold blocks to the associative one;
    the predicate is consulted at every ``set_index`` call, so the
    owning controller flips a block's mapping simply by updating its
    hotness table (after migrating any resident copy out — see
    :meth:`GeminiHybridCache._promote <repro.cache.gemini.GeminiHybridCache>`).
    """

    uniform = False

    def __init__(self, num_frames: int, direct_fraction: float,
                 assoc_ways: int, assoc_probe_ps: int,
                 is_hot: Callable[[int], bool]) -> None:
        if num_frames <= 0:
            raise ConfigError("num_frames must be positive")
        if not 0.0 < direct_fraction < 1.0:
            raise ConfigError("direct_fraction must be in (0, 1)")
        if assoc_ways < 1:
            raise ConfigError("assoc_ways must be positive")
        if assoc_probe_ps < 0:
            raise ConfigError("assoc_probe_ps must be non-negative")
        assoc_sets = int(num_frames * (1.0 - direct_fraction)) // assoc_ways
        direct_sets = num_frames - assoc_sets * assoc_ways
        while direct_sets < 1 and assoc_sets > 0:
            assoc_sets -= 1
            direct_sets = num_frames - assoc_sets * assoc_ways
        if direct_sets < 1 or assoc_sets < 1:
            raise ConfigError(
                f"cannot split {num_frames} frames into a hybrid layout "
                f"(direct_fraction={direct_fraction}, assoc_ways={assoc_ways})")
        self.num_frames = num_frames
        self.direct_sets = direct_sets
        self.assoc_sets = assoc_sets
        self.assoc_ways = assoc_ways
        self.assoc_probe_ps = assoc_probe_ps
        self.num_sets = direct_sets + assoc_sets
        self.is_hot = is_hot

    def set_index(self, block: int) -> int:
        if self.is_hot(block):
            return block % self.direct_sets
        return self.direct_sets + block % self.assoc_sets

    def ways_of(self, set_idx: int) -> int:
        return 1 if set_idx < self.direct_sets else self.assoc_ways

    def probe_cost_ps(self, set_idx: int) -> int:
        return 0 if set_idx < self.direct_sets else self.assoc_probe_ps


# ---------------------------------------------------------------------------
# Replacement seam
# ---------------------------------------------------------------------------
class ReplacementPolicy(abc.ABC):
    """Victim choice + residency bookkeeping hooks for one tag store.

    The hooks are called by :class:`~repro.cache.tagstore.TagStore` at
    every residency transition, so a policy can maintain recency state
    *and* mirror the resident set into side structures. All list
    mutation on hit/install is delegated here — the line list's order
    IS the policy's recency state.
    """

    #: policies that mirror residency into side structures need every
    #: install/evict surfaced — set True to disable the store's lazy
    #: range-prewarm fast path (which materialises lines without hooks)
    tracks_residency: bool = False

    @abc.abstractmethod
    def victim(self, lines: List["_Line"]) -> "_Line":
        """The line to evict from a full set."""

    @abc.abstractmethod
    def on_hit(self, lines: List["_Line"], line: "_Line") -> None:
        """A resident line was touched (probe hit or rewrite)."""

    @abc.abstractmethod
    def on_install(self, lines: List["_Line"], line: "_Line") -> None:
        """A new line entered the set (must add it to ``lines``)."""

    def on_evict(self, line: "_Line") -> None:
        """A line left the store (eviction or invalidate)."""

    def on_dirty(self, line: "_Line") -> None:
        """A resident clean line just became dirty."""


class LruPolicy(ReplacementPolicy):
    """LRU as list order: index 0 = LRU, append = MRU (the default)."""

    def victim(self, lines: List["_Line"]) -> "_Line":
        return lines[0]

    def on_hit(self, lines: List["_Line"], line: "_Line") -> None:
        lines.remove(line)
        lines.append(line)

    def on_install(self, lines: List["_Line"], line: "_Line") -> None:
        lines.append(line)


# ---------------------------------------------------------------------------
# TicToc side structures (PAPERS.md, arXiv:1907.02184)
# ---------------------------------------------------------------------------
class SramTagCache:
    """Bounded LRU map ``block -> dirty`` mirroring tag-store residency.

    Models TicToc's on-die SRAM tag cache: a hit means the controller
    knows the DRAM-cache lookup outcome without touching DRAM tags.
    Entries are dropped eagerly on eviction/invalidate (via
    :class:`TictocPolicy`), so a present entry is always accurate.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("tag cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, bool]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, block: int) -> Optional[bool]:
        """Dirty bit of a known-resident block; ``None`` = unknown."""
        dirty = self._entries.get(block)
        if dirty is not None:
            self._entries.move_to_end(block)
        return dirty

    def put(self, block: int, dirty: bool) -> None:
        entries = self._entries
        if block in entries:
            entries[block] = dirty
            entries.move_to_end(block)
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[block] = dirty

    def drop(self, block: int) -> None:
        self._entries.pop(block, None)


class DirtyRegionList:
    """Per-region count of dirty resident lines (region = set range).

    TicToc's dirty list, tracked over *cache set* space: if a set's
    region holds no dirty line, neither the block being accessed (if
    resident) nor any victim in that set can be dirty — so the
    controller may bypass the DRAM tag probe and go straight to main
    memory / a direct cache write.
    """

    def __init__(self, sets_per_region: int) -> None:
        if sets_per_region <= 0:
            raise ConfigError("sets_per_region must be positive")
        self.sets_per_region = sets_per_region
        self._counts: Dict[int, int] = {}

    def region_of(self, set_idx: int) -> int:
        return set_idx // self.sets_per_region

    def region_dirty(self, set_idx: int) -> bool:
        return self.region_of(set_idx) in self._counts

    def add(self, set_idx: int) -> None:
        region = self.region_of(set_idx)
        self._counts[region] = self._counts.get(region, 0) + 1

    def remove(self, set_idx: int) -> None:
        region = self.region_of(set_idx)
        count = self._counts.get(region, 0)
        if count <= 0:
            raise ConfigError(
                f"dirty-region underflow for region {region} — the policy "
                "mirror lost track of a dirty line")
        if count == 1:
            del self._counts[region]
        else:
            self._counts[region] = count - 1

    def dirty_regions(self) -> int:
        return len(self._counts)


class TictocPolicy(LruPolicy):
    """LRU + residency mirroring into the SRAM tag cache / dirty list.

    Exercises every :class:`ReplacementPolicy` hook: installs and
    rewrites keep the tag cache coherent (an entry is only ever present
    for a genuinely resident line), and dirty transitions/evictions
    keep the dirty-region counts exact.
    """

    tracks_residency = True

    def __init__(self, tag_cache: SramTagCache, dirty_list: DirtyRegionList,
                 set_index: Callable[[int], int]) -> None:
        self.tag_cache = tag_cache
        self.dirty_list = dirty_list
        self.set_index = set_index

    def on_hit(self, lines: List["_Line"], line: "_Line") -> None:
        # A touch means the controller just resolved this block's tags
        # (DRAM probe or bypass check) — refresh the SRAM copy so the
        # next access to it short-circuits.
        LruPolicy.on_hit(self, lines, line)
        self.tag_cache.put(line.block, line.dirty)

    def on_install(self, lines: List["_Line"], line: "_Line") -> None:
        lines.append(line)
        self.tag_cache.put(line.block, line.dirty)
        if line.dirty:
            self.dirty_list.add(self.set_index(line.block))

    def on_dirty(self, line: "_Line") -> None:
        self.tag_cache.put(line.block, True)
        self.dirty_list.add(self.set_index(line.block))

    def on_evict(self, line: "_Line") -> None:
        self.tag_cache.drop(line.block)
        if line.dirty:
            self.dirty_list.remove(self.set_index(line.block))
