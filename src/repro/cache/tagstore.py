"""Architectural (functional) tag store for the DRAM cache.

The tag store holds the *truth* about cache contents; design
controllers consult it to learn the outcome an access will have, then
model the timing/energy their hardware spends discovering that outcome.

Blocks map to sets as ``block % num_sets`` and each set keeps its
lines in LRU order (index 0 = LRU, last = MRU). Direct-mapped is the
paper's primary configuration; ``ways > 1`` gives the set-associative
variant of §V-F. The committed golden digests
(``tests/golden_runs.json``) and ``tests/test_tagstore.py`` pin this
behaviour. Only frames that have ever been touched are materialised (a
dict), so a 64 GiB cache costs memory proportional to the trace, not
the device.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from repro.cache.request import Outcome
from repro.errors import ConfigError


class _Line:
    """One resident tag line (``__slots__``: allocated per cached block)."""

    __slots__ = ("block", "dirty")

    def __init__(self, block: int, dirty: bool) -> None:
        self.block = block
        self.dirty = dirty


class LookupResult(NamedTuple):
    """Outcome of probing the tag store, plus the would-be victim.

    Immutable, so every hit and every empty-frame miss return a shared
    constant (:data:`_HIT_CLEAN`, :data:`_HIT_DIRTY`,
    :data:`_MISS_INVALID`) instead of one new object per probe; a result
    naming a victim is built with ``tuple.__new__``, skipping the
    generated Python ``__new__``.
    """

    outcome: Outcome
    #: conflicting resident block (on miss)
    victim_block: Optional[int] = None
    victim_dirty: bool = False


#: the results that name no victim, shared by every probe
_HIT_CLEAN = LookupResult(Outcome.HIT_CLEAN)
_HIT_DIRTY = LookupResult(Outcome.HIT_DIRTY)
_MISS_INVALID = LookupResult(Outcome.MISS_INVALID)
# Read per probe, as module globals (see repro.cache.controller).
_MISS_CLEAN = Outcome.MISS_CLEAN
_MISS_DIRTY = Outcome.MISS_DIRTY
#: builds a NamedTuple without its generated Python ``__new__`` (typed
#: loosely: the checker types ``tuple.__new__`` as returning a tuple)
_new_tuple: Callable[..., Any] = tuple.__new__


class DirtyFlags(Protocol):
    """The dirty flags of a bulk install, read by index or in order: a
    list, or a lazy view such as :class:`repro.sim.rng.BernoulliView`."""

    def __getitem__(self, index: int) -> bool: ...

    def __iter__(self) -> Iterator[bool]: ...


class TagStore:
    """Set-associative tag/metadata array with LRU replacement."""

    def __init__(self, num_frames: int, ways: int = 1) -> None:
        if num_frames <= 0:
            raise ConfigError("num_frames must be positive")
        if ways <= 0 or num_frames % ways:
            raise ConfigError(f"ways={ways} must divide num_frames={num_frames}")
        self.num_frames = num_frames
        self.ways = ways
        self.num_sets = num_frames // ways
        #: set index -> lines in LRU order (index 0 = LRU, last = MRU)
        self._sets: Dict[int, List[_Line]] = {}
        #: lazy prewarm backing: sets ``[0, _lazy_n)`` not present in
        #: ``_sets`` hold one line ``_Line(idx, _lazy_dirty[idx])`` that is
        #: materialised on first touch (see ``bulk_install``)
        self._lazy_n = 0
        self._lazy_dirty: Optional[DirtyFlags] = None

    def _locate(self, block: int) -> Tuple[List[_Line], Optional[_Line]]:
        idx = block % self.num_sets
        lines = self._sets.get(idx)
        if lines is None:
            lines = self._materialize(idx)
        for line in lines:
            if line.block == block:
                return lines, line
        return lines, None

    def _materialize(self, idx: int) -> List[_Line]:
        """First touch of a set: realise its lazy prewarm line (if any)."""
        dirty = self._lazy_dirty
        if dirty is not None and idx < self._lazy_n:
            lines = [_Line(idx, bool(dirty[idx]))]
        else:
            lines = []
        self._sets[idx] = lines
        return lines

    def _materialize_all(self) -> None:
        """Realise every remaining lazy prewarm line (whole-store walks)."""
        n, dirty = self._lazy_n, self._lazy_dirty
        if not n or dirty is None:
            return
        self._lazy_n, self._lazy_dirty = 0, None
        sets = self._sets
        for idx in range(n):
            if idx not in sets:
                sets[idx] = [_Line(idx, bool(dirty[idx]))]

    # ------------------------------------------------------------------
    # Probes (no state change beyond the LRU touch on hit)
    # ------------------------------------------------------------------
    def probe(self, block: int, touch: bool = True) -> LookupResult:
        """Look up ``block``; on a hit optionally make it MRU."""
        lines, line = self._locate(block)
        if line is not None:
            if touch:
                lines.remove(line)
                lines.append(line)
            return _HIT_DIRTY if line.dirty else _HIT_CLEAN
        if len(lines) < self.ways:
            return _MISS_INVALID
        victim = lines[0]
        dirty = victim.dirty
        return _new_tuple(LookupResult, (
            _MISS_DIRTY if dirty else _MISS_CLEAN, victim.block, dirty))

    def contains(self, block: int) -> bool:
        """Whether ``block`` is resident (no recency update)."""
        return self._locate(block)[1] is not None

    def is_dirty(self, block: int) -> bool:
        """Whether ``block`` is resident and dirty."""
        line = self._locate(block)[1]
        return bool(line and line.dirty)

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def _evict_for(self, lines: List[_Line]) -> Optional[Tuple[int, bool]]:
        """Make room in a full set: pop and return its LRU line."""
        if len(lines) < self.ways:
            return None
        victim = lines.pop(0)
        return (victim.block, victim.dirty)

    def install(self, block: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Insert (or update) ``block``; returns the evicted (block, dirty).

        A resident block is updated in place (writes re-dirty it) and
        becomes MRU; an absent block evicts the LRU line if the set is
        full.
        """
        lines, line = self._locate(block)
        if line is not None:
            line.dirty = line.dirty or dirty
            lines.remove(line)
            lines.append(line)
            return None
        evicted = self._evict_for(lines)
        lines.append(_Line(block, dirty))
        return evicted

    def fill(self, block: int) -> Optional[Tuple[int, bool]]:
        """Install a clean copy fetched from main memory (one set walk).

        If the block arrived in the meantime (e.g. a write allocated it
        while the fetch was in flight), the fill is dropped so a stale
        clean copy never overwrites newer dirty data.
        """
        lines, line = self._locate(block)
        if line is not None:
            return None
        evicted = self._evict_for(lines)
        lines.append(_Line(block, False))
        return evicted

    def bulk_install(self, blocks: Iterable[int],
                     dirty_flags: DirtyFlags) -> None:
        """Fast-path warm-up: install many lines without recency churn.

        Used to emulate the paper's warmed checkpoints (§IV-B): the
        steady-state resident set is installed functionally before the
        timed simulation starts. Later installs to a full set evict in
        arrival order.
        """
        sets = self._sets
        num_sets = self.num_sets
        if (not sets and not self._lazy_n
                and isinstance(blocks, range)
                and blocks.step == 1 and blocks.start == 0
                and len(blocks) <= num_sets):
            # The generator prewarm path: a contiguous block range into
            # an empty store. Every block lands in its own set
            # (block % num_sets == block), so instead of allocating a
            # line per block we record the range and materialise each
            # set on first touch — a short run over a large resident set
            # only ever realises the sets it actually probes, and reads
            # only their flags (a lazy view computes just those).
            self._lazy_n = len(blocks)
            self._lazy_dirty = dirty_flags
            return
        self._materialize_all()
        ways = self.ways
        for block, dirty in zip(blocks, dirty_flags):
            lines = sets.setdefault(block % num_sets, [])
            for line in lines:
                if line.block == block:
                    line.dirty = line.dirty or bool(dirty)
                    break
            else:
                if len(lines) >= ways:
                    lines.pop(0)
                lines.append(_Line(block, bool(dirty)))

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if resident; returns whether it was present."""
        lines, line = self._locate(block)
        if line is None:
            return False
        lines.remove(line)
        return True

    def resident_blocks(self) -> int:
        """Lines resident, lazily prewarmed ones included."""
        count = sum(len(lines) for lines in self._sets.values())
        if self._lazy_n:
            count += self._lazy_n - sum(
                1 for idx in self._sets if idx < self._lazy_n)
        return count
