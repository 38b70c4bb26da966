"""Statistics primitives.

The stats dump (``repro.stats.dump``) and the Student-t estimator
(``repro.stats.estimator``) are imported from their submodules; a
simulation needs neither.
"""

from repro.stats.bandwidth import BandwidthLedger
from repro.stats.counters import CounterSet, LatencyStat, OccupancyStat

__all__ = [
    "BandwidthLedger",
    "CounterSet",
    "LatencyStat",
    "OccupancyStat",
]
