"""Frozen pre-seam :class:`TagStore` — the bit-identity A/B reference.

This is the tag store exactly as it was before the organization /
replacement seam landed (the event queue's counterpart is the reference
binary heap in ``tests/heap_reference.py``): a verbatim copy of the old
control flow with LRU hard-coded as list order and ``block % num_sets``
indexing inlined. A test oracle only: the A/B suite in
``tests/test_design_zoo.py`` swaps it in through the controller's
``_build_tag_store`` hook, runs every design against both stores and
requires ``dataclasses.asdict``-identical :class:`RunResult`\\ s.

Do not improve this file. It intentionally preserves the old
behaviour, including the double-walk ``fill()`` and the un-decoded
fill-path evictions the seamed store fixes (both invisible with RAS
off, which is how the A/B suite runs).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.cache.request import Outcome
from repro.cache.tagstore import LookupResult, TagStore, _Line
from repro.errors import ConfigError, RasError


class ReferenceTagStore(TagStore):
    """Set-associative tag/metadata array, pre-seam implementation."""

    def __init__(self, num_frames: int, ways: int = 1) -> None:
        if num_frames <= 0:
            raise ConfigError("num_frames must be positive")
        if ways <= 0 or num_frames % ways:
            raise ConfigError(f"ways={ways} must divide num_frames={num_frames}")
        self.num_frames = num_frames
        self.ways = ways
        self.num_sets = num_frames // ways
        self._sets = {}
        self._lazy_n = 0
        self._lazy_dirty = None
        self.ras = None
        self.disabled_ways = 0

    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def _find(self, block: int) -> Tuple[List[_Line], Optional[_Line]]:
        idx = block % self.num_sets
        lines = self._sets.get(idx)
        if lines is None:
            lines = self._materialize(idx)
        for line in lines:
            if line.block == block:
                return lines, line
        return lines, None

    def _locate(self, block: int) -> Tuple[int, List[_Line], Optional[_Line]]:
        # Seam-shaped accessor so RAS internals (fault injector) work
        # against either store.
        lines, line = self._find(block)
        return block % self.num_sets, lines, line

    # ------------------------------------------------------------------
    # Probes (no state change beyond LRU touch on hit)
    # ------------------------------------------------------------------
    def probe(self, block: int, touch: bool = True) -> LookupResult:
        """Look up ``block``; on a hit optionally refresh its LRU slot."""
        ras = self.ras
        if ras is not None and ras.block_disabled(block):
            return LookupResult(Outcome.MISS_INVALID)
        lines, line = self._find(block)
        penalty = 0
        if line is not None and ras is not None:
            verdict = ras.on_tag_read(line, block)
            if verdict is None:
                lines.remove(line)
                line = None
            else:
                penalty = verdict
        if line is not None:
            if touch:
                lines.remove(line)
                lines.append(line)
            outcome = Outcome.HIT_DIRTY if line.dirty else Outcome.HIT_CLEAN
            return LookupResult(outcome, ecc_penalty_ps=penalty)
        if len(lines) < self.available_ways:
            return LookupResult(Outcome.MISS_INVALID, ecc_penalty_ps=penalty)
        victim = lines[0]
        if ras is not None:
            verdict = ras.on_tag_read(victim, victim.block)
            if verdict is None:
                lines.remove(victim)
                return LookupResult(Outcome.MISS_INVALID,
                                    ecc_penalty_ps=penalty)
            penalty += verdict
        outcome = Outcome.MISS_DIRTY if victim.dirty else Outcome.MISS_CLEAN
        return LookupResult(outcome, victim_block=victim.block,
                            victim_dirty=victim.dirty,
                            ecc_penalty_ps=penalty)

    def contains(self, block: int) -> bool:
        return self._find(block)[1] is not None

    def is_dirty(self, block: int) -> bool:
        line = self._find(block)[1]
        return bool(line and line.dirty)

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def install(self, block: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Insert (or update) ``block``; returns the evicted (block, dirty)."""
        ras = self.ras
        if ras is not None and ras.block_disabled(block):
            if dirty:
                ras.write_through(block)
            else:
                ras.dropped_fill()
            return None
        lines, line = self._find(block)
        if line is not None:
            line.dirty = line.dirty or dirty
            if ras is not None:
                ras.note_rewrite(line)
                line.codeword = ras.encode_line(block, line.dirty)
                line.soft = 0
            lines.remove(line)
            lines.append(line)
            return None
        evicted: Optional[Tuple[int, bool]] = None
        if len(lines) >= self.available_ways:
            victim = lines.pop(0)
            evicted = (victim.block, victim.dirty)
        lines.append(self._new_line(block, dirty))
        return evicted

    def fill(self, block: int) -> Optional[Tuple[int, bool]]:
        """Install a clean copy fetched from main memory (two walks)."""
        if self.contains(block):
            return None
        return self.install(block, dirty=False)

    def bulk_install(self, blocks: Iterable[int],
                     dirty_flags: Iterable[bool]) -> None:
        """Fast-path warm-up: install many lines without LRU churn."""
        if hasattr(blocks, "tolist"):
            blocks = blocks.tolist()
        if hasattr(dirty_flags, "tolist"):
            dirty_flags = dirty_flags.tolist()
        capacity = self.available_ways
        sets = self._sets
        num_sets = self.num_sets
        ras = self.ras
        if (ras is None and not sets and not self._lazy_n
                and isinstance(blocks, range)
                and blocks.step == 1 and blocks.start == 0
                and len(blocks) <= num_sets):
            self._lazy_n = len(blocks)
            self._lazy_dirty = dirty_flags
            return
        self._materialize_all()
        for block, dirty in zip(blocks, dirty_flags):
            lines = sets.setdefault(block % num_sets, [])
            for line in lines:
                if line.block == block:
                    line.dirty = line.dirty or bool(dirty)
                    if ras is not None:
                        line.codeword = ras.encode_line(line.block,
                                                        line.dirty)
                    break
            else:
                if len(lines) >= capacity:
                    lines.pop(0)
                if ras is None:
                    lines.append(_Line(block, bool(dirty)))
                else:
                    lines.append(self._new_line(int(block), bool(dirty)))

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if resident; returns whether it was present."""
        lines, line = self._find(block)
        if line is None:
            return False
        lines.remove(line)
        return True

    # ------------------------------------------------------------------
    # Degradation support (repro.ras.degrade)
    # ------------------------------------------------------------------
    def disable_way(self) -> List[Tuple[int, bool]]:
        """Fuse off one way store-wide; returns the evicted lines."""
        if self.available_ways <= 1:
            raise RasError("cannot disable the last remaining way")
        self._materialize_all()
        self.disabled_ways += 1
        capacity = self.available_ways
        evicted: List[Tuple[int, bool]] = []
        for lines in self._sets.values():
            while len(lines) > capacity:
                victim = lines.pop(0)
                evicted.append((victim.block, victim.dirty))
        return evicted

    def evict_matching(
        self, predicate: Callable[[int], bool]
    ) -> List[Tuple[int, bool]]:
        """Drop every resident line whose block satisfies ``predicate``."""
        self._materialize_all()
        evicted: List[Tuple[int, bool]] = []
        for lines in self._sets.values():
            keep = [line for line in lines if not predicate(line.block)]
            if len(keep) != len(lines):
                evicted.extend(
                    (line.block, line.dirty)
                    for line in lines if predicate(line.block)
                )
                lines[:] = keep
        return evicted
