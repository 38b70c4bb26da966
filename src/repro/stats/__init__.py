"""Statistics primitives."""

from repro.stats.bandwidth import BandwidthLedger
from repro.stats.counters import CounterSet, LatencyStat, OccupancyStat
from repro.stats.dump import collect_stats, dump_stats
from repro.stats.estimator import estimate, t_critical

__all__ = [
    "BandwidthLedger",
    "CounterSet",
    "LatencyStat",
    "OccupancyStat",
    "collect_stats",
    "dump_stats",
    "estimate",
    "t_critical",
]
