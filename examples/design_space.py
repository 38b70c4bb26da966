#!/usr/bin/env python
"""Design-space exploration with the TDRAM model.

Three sweeps a memory-system architect would run before committing to
the design:

1. **Cache capacity** — how does TDRAM's benefit scale as the cache
   covers more of a fixed-footprint workload?
2. **Flush-buffer size** — the §V-E sensitivity: stalls and occupancy
   at 4..64 entries under write-heavy conflict traffic.
3. **Set associativity** — the §V-F question: does the direct-mapped
   design leave conflict misses on the table?

Usage::

    python examples/design_space.py [--sweep capacity|flush|ways|all]
"""

import argparse

from repro import MIB, SystemConfig, run_experiment
from repro.experiments.figures import ExperimentContext
from repro.experiments.studies import (
    flush_buffer_sensitivity,
    set_associativity_study,
)
from repro.workloads import workload


def sweep_capacity(demands: int) -> None:
    print("== cache-capacity sweep (workload pr.25, fixed footprint) ==")
    from dataclasses import replace

    spec = workload("pr.25")
    base = SystemConfig.small()  # 16 MiB
    print(f"{'capacity':>10} {'miss':>8} {'tag ns':>8} {'runtime us':>11}")
    for capacity_mib in (4, 8, 16, 32, 64):
        config = base.with_(
            cache_capacity_bytes=capacity_mib * MIB,
            mm_capacity_bytes=16 * 64 * MIB,
        )
        # Workload footprints scale with the configured capacity; undo
        # that here so the absolute footprint stays fixed across points.
        fixed = replace(
            spec,
            paper_footprint_bytes=int(
                spec.paper_footprint_bytes
                * base.cache_capacity_bytes / config.cache_capacity_bytes
            ),
        )
        result = run_experiment("tdram", fixed, config,
                                demands_per_core=demands)
        print(f"{capacity_mib:>8}MiB {result.miss_ratio:>8.1%} "
              f"{result.tag_check_ns:>8.1f} {result.runtime_ps / 1e6:>11.2f}")
    print()


def sweep_flush(demands: int) -> None:
    print("== flush-buffer sweep (§V-E) ==")
    result = flush_buffer_sensitivity(
        ExperimentContext(config=SystemConfig.small(),
                          demands_per_core=demands),
        sizes=(4, 8, 16, 32, 64))
    print(result.render())
    print()


def sweep_ways(demands: int) -> None:
    print("== associativity sweep (§V-F) ==")
    result = set_associativity_study(
        ExperimentContext(config=SystemConfig.small(),
                          demands_per_core=demands),
        ways=(1, 2, 4, 8, 16))
    print(result.render())
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", default="all",
                        choices=["capacity", "flush", "ways", "all"])
    parser.add_argument("--demands", type=int, default=400)
    args = parser.parse_args()
    if args.sweep in ("capacity", "all"):
        sweep_capacity(args.demands)
    if args.sweep in ("flush", "all"):
        sweep_flush(args.demands)
    if args.sweep in ("ways", "all"):
        sweep_ways(args.demands)


if __name__ == "__main__":
    main()
