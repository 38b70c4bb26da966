"""Statistics primitives and result reporting."""

from repro.stats.bandwidth import BandwidthLedger
from repro.stats.counters import CounterSet, LatencyStat, OccupancyStat
from repro.stats.dump import collect_stats, dump_stats
from repro.stats.estimator import estimate, t_critical
from repro.stats.report import (
    breakdown_bar,
    comparison_table,
    result_to_dict,
    results_to_json,
)

__all__ = [
    "BandwidthLedger",
    "CounterSet",
    "LatencyStat",
    "OccupancyStat",
    "collect_stats",
    "dump_stats",
    "estimate",
    "t_critical",
    "breakdown_bar",
    "comparison_table",
    "result_to_dict",
    "results_to_json",
]
