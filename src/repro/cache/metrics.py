"""Per-run metrics collected by every DRAM-cache design.

One :class:`CacheMetrics` instance is owned by a controller; the
experiment runner calls :meth:`reset` at the end of the warm-up window
so reported statistics cover only the measured region (mirroring the
paper's warmed-checkpoint methodology, §IV-B).
"""

from __future__ import annotations

from typing import Dict

from repro.cache.request import Op, Outcome
from repro.stats.bandwidth import BandwidthLedger
from repro.stats.counters import CounterSet, LatencyStat

#: Fig. 1 category labels: the ``read_category`` and ``write_category``
#: each :class:`~repro.cache.request.Outcome` member carries.
BREAKDOWN_CATEGORIES = (
    "read_hit",
    "write_hit",
    "read_miss_clean",
    "read_miss_dirty",
    "write_miss_clean",
    "write_miss_dirty",
)

#: Demand totals, summed from the Fig. 1 categories when read.
OUTCOME_TOTALS = {
    "demands": BREAKDOWN_CATEGORIES,
    "hits": ("read_hit", "write_hit"),
    "misses": ("read_miss_clean", "read_miss_dirty",
               "write_miss_clean", "write_miss_dirty"),
    "reads": ("read_hit", "read_miss_clean", "read_miss_dirty"),
    "writes": ("write_hit", "write_miss_clean", "write_miss_dirty"),
}


# Enum members read per access, as module globals (see controller.py).
_READ = Op.READ


class CacheMetrics:
    """All measured quantities for one (design, workload) run."""

    def __init__(self) -> None:
        self.outcomes = CounterSet()
        self.events = CounterSet()
        self.ledger = BandwidthLedger()
        self.tag_check = LatencyStat("tag_check")
        self.read_queue_delay = LatencyStat("read_queue_delay")
        self.read_latency = LatencyStat("read_latency")

    # ------------------------------------------------------------------
    def record_outcome(self, op: Op, outcome: Outcome) -> None:
        """Count one access in its Fig. 1 category."""
        self.outcomes.add(outcome.read_category if op is _READ
                          else outcome.write_category)

    def total(self, name: str) -> int:
        """One of :data:`OUTCOME_TOTALS`, summed from its categories."""
        return self.outcomes.total(OUTCOME_TOTALS[name])

    def outcome_counts(self) -> Dict[str, int]:
        """The recorded categories plus every non-zero derived total."""
        counts = self.outcomes.as_dict()
        totals = {name: self.total(name) for name in OUTCOME_TOTALS}
        counts.update((name, n) for name, n in totals.items() if n)
        return counts

    # ------------------------------------------------------------------
    @property
    def demands(self) -> int:
        """Demands with a recorded outcome."""
        return self.total("demands")

    @property
    def miss_ratio(self) -> float:
        """Misses over demands (0.0 with no demands)."""
        if self.demands == 0:
            return 0.0
        return self.total("misses") / self.demands

    @property
    def read_miss_ratio(self) -> float:
        """Read misses over reads (0.0 with no reads)."""
        reads = self.total("reads")
        if reads == 0:
            return 0.0
        read_misses = self.outcomes["read_miss_clean"] + self.outcomes["read_miss_dirty"]
        return read_misses / reads

    def breakdown(self) -> Dict[str, float]:
        """Fig. 1: fraction of demands in each hit/miss category.

        An empty measured region reports 0.0 in every category — the
        same early-return convention as :attr:`miss_ratio` and
        :attr:`read_miss_ratio`, rather than dividing by a fake
        denominator of 1.
        """
        total = self.demands
        if total == 0:
            return {name: 0.0 for name in BREAKDOWN_CATEGORIES}
        return {
            name: self.outcomes[name] / total for name in BREAKDOWN_CATEGORIES
        }

    def reset(self) -> None:
        """Forget everything measured (end of the warm-up window)."""
        self.outcomes.reset()
        self.events.reset()
        self.ledger.reset()
        self.tag_check.reset()
        self.read_queue_delay.reset()
        self.read_latency.reset()
