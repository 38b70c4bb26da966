"""TDRAM mechanism ablation: what does each feature buy?

TDRAM stacks several mechanisms on the base in-DRAM-tags idea. This
matrix removes them one at a time (and all at once) to attribute the
end-to-end benefit, the way an artifact evaluation would:

* ``full``           — everything on (the paper's TDRAM);
* ``no_probing``     — §III-E off (the paper's own ablation: ~NDC);
* ``forced_unloads`` — flush buffer drains only via explicit commands
  (NDC's RES-style policy) instead of free read-miss-clean/refresh slots;
* ``per_bank_refresh`` — no channel-wide refresh windows to unload in;
* ``base``           — probing off *and* forced-only unloads: in-DRAM
  tags with none of TDRAM's opportunistic machinery.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures import ExperimentContext, FigureResult, geomean

#: variant name -> SystemConfig overrides
ABLATION_VARIANTS: Dict[str, Dict[str, object]] = {
    "full": {},
    "no_probing": {"enable_probing": False},
    "forced_unloads": {"flush_unload_policy": "forced_only"},
    "per_bank_refresh": {"cache_refresh_policy": "per_bank"},
    "base": {"enable_probing": False, "flush_unload_policy": "forced_only"},
}


def tdram_ablation(ctx: ExperimentContext) -> FigureResult:
    """Run every ablation variant and report geomean deltas vs full.

    The variants x workloads matrix runs as one campaign through
    ``ctx`` (each variant's modified ``SystemConfig`` is part of the
    cache key).
    """
    ctx.warm([cell for overrides in ABLATION_VARIANTS.values()
              for cell in ctx.cells(["tdram"], **overrides)])
    per_variant: Dict[str, Dict[str, float]] = {}
    for variant, overrides in ABLATION_VARIANTS.items():
        results = [ctx.result("tdram", spec, **overrides)
                   for spec in ctx.specs]
        per_variant[variant] = {
            "runtime": geomean([r.runtime_ps for r in results]),
            "tag": geomean([r.tag_check_ns for r in results]),
            "queue": geomean([r.queue_delay_ns for r in results]),
            "forced_unloads": sum(r.flush_unloads.get("unload_forced", 0)
                                  for r in results),
        }
    full = per_variant["full"]
    rows = []
    for variant, values in per_variant.items():
        rows.append({
            "variant": variant,
            "runtime_vs_full": values["runtime"] / full["runtime"],
            "tag_check_ns": values["tag"],
            "queue_delay_ns": values["queue"],
            "forced_unloads": values["forced_unloads"],
        })
    return FigureResult(
        figure="TDRAM ablation",
        title="Per-mechanism contribution (geomean over the workload set)",
        columns=["variant", "runtime_vs_full", "tag_check_ns",
                 "queue_delay_ns", "forced_unloads"],
        rows=rows,
        notes=("runtime_vs_full > 1 means the removed mechanism was "
               "helping. Paper reference points: no-probing ~ NDC (§V-A); "
               "opportunistic unloads keep forced drains near zero (§V-E)."),
    )
