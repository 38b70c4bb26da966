"""Patrol scrubber for latent tag-store errors.

Single-bit faults are harmless individually — SECDED corrects them on
read — but a second, independent flip in the same codeword turns a
correctable error into an uncorrectable double. The scrubber bounds the
window in which that pairing can happen: every ``scrub_interval_ns`` it
decodes the next ``scrub_lines_per_pass`` resident tag words (sized so
one batch of tag-mat reads fits in an all-bank refresh window, when the
tag banks are idle anyway — ``tests/test_ras.py`` asserts this for the
default config) and rewrites any word that decodes CORRECTED.

Uncorrectable words found while scrubbing follow the same graceful
policy as the demand path: clean lines are invalidated (a later demand
refetches from main memory), dirty lines are a counted data-loss, and
either way the degradation manager hears about it.
"""

from __future__ import annotations

from typing import List

from repro.core.ecc import EccOutcome
from repro.ras.config import RasConfig
from repro.ras.degrade import DegradationManager
from repro.ras.tag_ecc import TagEccEngine
from repro.sim.kernel import Simulator, ns
from repro.stats.counters import RasCounters


class PatrolScrubber:
    """Walks resident tag lines and repairs latent single-bit errors."""

    def __init__(
        self,
        sim: Simulator,
        config: RasConfig,
        tags,                                   # TagStore (duck-typed)
        engine: TagEccEngine,
        counters: RasCounters,
        degrade: DegradationManager,
    ) -> None:
        self.sim = sim
        self.config = config
        self.tags = tags
        self.engine = engine
        self.counters = counters
        self.degrade = degrade
        self._interval = ns(config.scrub_interval_ns)
        self._cursor = 0
        self._set_keys: List[int] = []

    def start(self) -> None:
        """Schedule the first patrol pass on the simulation kernel."""
        self.sim.schedule(self._interval, self._pass)

    # ------------------------------------------------------------------
    def _pass(self) -> None:
        sets = self.tags._sets
        if len(self._set_keys) != len(sets):
            self._set_keys = list(sets.keys())
        if self._set_keys:
            self.counters.add("scrub_passes")
            budget = self.config.scrub_lines_per_pass
            for _ in range(len(self._set_keys)):
                if budget <= 0:
                    break
                key = self._set_keys[self._cursor % len(self._set_keys)]
                self._cursor += 1
                lines = sets.get(key)
                if not lines:
                    continue
                budget -= self._scrub_set(lines)
        self.sim.schedule(self._interval, self._pass)

    def _scrub_set(self, lines) -> int:
        """Scrub every line of one set; returns lines examined."""
        examined = 0
        for line in list(lines):
            examined += 1
            self.counters.add("scrub_scanned")
            result = self.engine.decode(line.codeword)
            if result.outcome is EccOutcome.CLEAN:
                if line.soft:
                    # Rewriting the word also clears read-disturb state.
                    line.soft = 0
                continue
            if result.outcome is EccOutcome.CORRECTED:
                line.codeword = self.engine.encode_line(line.block, line.dirty)
                line.soft = 0
                self.counters.add("scrub_repaired")
                continue
            # Uncorrectable: same policy as an exhausted demand retry.
            self.counters.add("scrub_uncorrectable")
            if line.dirty:
                self.counters.add("scrub_data_loss")
            lines.remove(line)
            # Surface the drop to the replacement policy so residency
            # mirrors (TicToc's tag cache / dirty list) stay exact. The
            # frozen reference store predates the seam and has none.
            policy = getattr(self.tags, "policy", None)
            if policy is not None:
                policy.on_evict(line)
            self.degrade.record_uncorrectable(line.block)
        return examined
