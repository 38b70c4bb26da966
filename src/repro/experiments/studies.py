"""Sensitivity and ablation studies from §V-D/E/F and §V-A.

* :func:`predictor_study` — §V-D: MAP-I gives only ~1.03-1.04x.
* :func:`flush_buffer_sensitivity` — §V-E: sizes 8/16/32/64; 16 entries
  never stall, mean occupancy ~5, max ~12.
* :func:`set_associativity_study` — §V-F: 1/2/4/8/16 ways perform alike
  on these workloads.
* :func:`probing_ablation` — §V-A/V-B: TDRAM without early tag probing
  behaves like NDC.

Each simulating study runs its matrix through the
:class:`~repro.experiments.figures.ExperimentContext` it is given, so
the context's config, workloads, work quantum, seed, worker processes
and result cache apply to it as to every figure.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.figures import ExperimentContext, FigureResult, geomean
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import workload


def predictor_study(ctx: ExperimentContext) -> FigureResult:
    """§V-D: Cascade Lake with and without the MAP-I predictor."""
    ctx.warm(ctx.cells(["cascade_lake"])
             + ctx.cells(["cascade_lake"], use_predictor=True))
    rows = []
    speedups = []
    for spec in ctx.specs:
        base = ctx.result("cascade_lake", spec)
        pred = ctx.result("cascade_lake", spec, use_predictor=True)
        speedup = pred.speedup_over(base)
        speedups.append(speedup)
        rows.append({
            "workload": spec.name,
            "base_runtime_us": base.runtime_ps / 1e6,
            "predictor_runtime_us": pred.runtime_ps / 1e6,
            "speedup": speedup,
            "speculative_fetches": pred.events.get("speculative_fetch", 0),
        })
    rows.append({"workload": "geomean", "speedup": geomean(speedups)})
    return FigureResult(
        figure="Section V-D",
        title="MAP-I predictor impact on Cascade Lake",
        columns=["workload", "base_runtime_us", "predictor_runtime_us",
                 "speedup", "speculative_fetches"],
        rows=rows,
        notes="Paper: predictors give only ~1.03-1.04x and add bandwidth bloat.",
    )


def prefetcher_study(ctx: ExperimentContext, degree: int = 2) -> FigureResult:
    """§V-D (prefetchers): TDRAM with and without a stride prefetcher.

    The paper's preliminary analysis: prefetchers give only incremental
    gains at the DRAM-cache level because they interfere with demands
    and consume bandwidth, especially at low accuracy.
    """
    prefetch = {"use_prefetcher": True, "prefetch_degree": degree}
    ctx.warm(ctx.cells(["tdram"]) + ctx.cells(["tdram"], **prefetch))
    rows = []
    speedups = []
    for spec in ctx.specs:
        base = ctx.result("tdram", spec)
        pref = ctx.result("tdram", spec, **prefetch)
        speedup = pref.speedup_over(base)
        speedups.append(speedup)
        rows.append({
            "workload": spec.name,
            "speedup": speedup,
            "prefetches": pref.prefetches,
            "useful": pref.prefetch_useful,
            "extra_bloat": pref.bloat_factor - base.bloat_factor,
        })
    rows.append({"workload": "geomean", "speedup": geomean(speedups)})
    return FigureResult(
        figure="Section V-D (prefetchers)",
        title=f"Stride prefetcher (degree {degree}) on TDRAM",
        columns=["workload", "speedup", "prefetches", "useful", "extra_bloat"],
        rows=rows,
        notes="Paper: prefetchers give incremental gains and add bloat.",
    )


def flush_buffer_sensitivity(
    ctx: ExperimentContext,
    sizes: tuple = (8, 16, 32, 64),
    spec: Optional[WorkloadSpec] = None,
) -> FigureResult:
    """§V-E: flush-buffer occupancy/stalls across buffer sizes.

    Runs on ``spec`` alone, not the context's workloads. It defaults to
    ft.D, a high-miss suite workload on which the paper's "16 entries
    never stall" can be checked; at ``SystemConfig.small()`` scale its
    buffer holds at most a few entries, so no size stalls.
    ``repro.workloads.write_storm_spec()`` is the adversarial stressor
    that fills the buffer and shows stalls falling with its size.
    """
    spec = spec if spec is not None else workload("ft.D")
    ctx.warm([("tdram", spec, {"flush_buffer_entries": size})
              for size in sizes])
    rows = []
    for size in sizes:
        result = ctx.result("tdram", spec, flush_buffer_entries=size)
        rows.append({
            "entries": size,
            "stalls": result.flush_stalls,
            "mean_occupancy": result.flush_mean_occupancy,
            "max_occupancy": result.flush_max_occupancy,
            "unload_read_miss_clean": result.flush_unloads.get(
                "unload_read_miss_clean", 0),
            "unload_refresh": result.flush_unloads.get("unload_refresh", 0),
            "unload_forced": result.flush_unloads.get("unload_forced", 0),
            "runtime_us": result.runtime_ps / 1e6,
        })
    return FigureResult(
        figure="Section V-E",
        title="Flush buffer size sensitivity (TDRAM, write-heavy workload)",
        columns=["entries", "stalls", "mean_occupancy", "max_occupancy",
                 "unload_read_miss_clean", "unload_refresh", "unload_forced",
                 "runtime_us"],
        rows=rows,
        notes=("Paper: only lu.D at 8 entries ever stalled (13 times); "
               "mean occupancy ~5, max ~12; 16 entries never stall."),
    )


def set_associativity_study(
    ctx: ExperimentContext,
    ways: tuple = (1, 2, 4, 8, 16),
) -> FigureResult:
    """§V-F: direct-mapped vs set-associative TDRAM.

    The paper finds the HPC workloads have negligible conflict misses,
    so all associativities achieve similar speedups over main memory.
    """
    ctx.warm([cell for n_ways in ways
              for cell in ctx.cells(["no_cache", "tdram"],
                                    cache_ways=n_ways)])
    rows = []
    for n_ways in ways:
        speedups = []
        miss_ratios = []
        for spec in ctx.specs:
            baseline = ctx.result("no_cache", spec, cache_ways=n_ways)
            result = ctx.result("tdram", spec, cache_ways=n_ways)
            speedups.append(result.speedup_over(baseline))
            miss_ratios.append(result.miss_ratio)
        rows.append({
            "ways": n_ways,
            "speedup_vs_no_cache": geomean(speedups),
            "mean_miss_ratio": sum(miss_ratios) / len(miss_ratios),
        })
    return FigureResult(
        figure="Section V-F",
        title="Set-associative TDRAM (geomean speedup over main memory only)",
        columns=["ways", "speedup_vs_no_cache", "mean_miss_ratio"],
        rows=rows,
        notes="Paper: direct-mapped and 2/4/8/16-way perform similarly.",
    )


def way_select_study(ways_list=(1, 2, 4, 8, 16)) -> FigureResult:
    """§V-F/Table I: in-DRAM vs controller-side way selection (analytic).

    TDRAM's per-way comparators keep set-associative accesses at
    direct-mapped latency; shipping all tags to the controller adds an
    HM round trip that grows with associativity.
    """
    from repro.core.ways import way_select_comparison
    from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing

    rows = way_select_comparison(hbm3_cache_timing(),
                                 rldram_like_tag_timing(), ways_list)
    return FigureResult(
        figure="Section V-F (way selection)",
        title="Per-access overhead of way-selection implementations",
        columns=["ways", "in_dram_latency_ns", "controller_latency_ns",
                 "in_dram_energy_pj", "controller_energy_pj"],
        rows=rows,
        notes=("Paper: implementations without in-DRAM comparators send all "
               "set tags to the controller, incurring extra latency/energy."),
    )


def probing_ablation(ctx: ExperimentContext) -> FigureResult:
    """§V-A/V-B: TDRAM without early tag probing ~ NDC."""
    ctx.warm(ctx.cells(["tdram", "ndc"])
             + ctx.cells(["tdram"], enable_probing=False))
    rows = []
    for spec in ctx.specs:
        tdram = ctx.result("tdram", spec)
        no_probe = ctx.result("tdram", spec, enable_probing=False)
        ndc = ctx.result("ndc", spec)
        rows.append({
            "workload": spec.name,
            "tdram_tag_ns": tdram.tag_check_ns,
            "tdram_noprobe_tag_ns": no_probe.tag_check_ns,
            "ndc_tag_ns": ndc.tag_check_ns,
            "probing_gain": (no_probe.tag_check_ns / tdram.tag_check_ns
                             if tdram.tag_check_ns else 0.0),
        })
    return FigureResult(
        figure="Section V-A (ablation)",
        title="Early tag probing ablation: TDRAM vs TDRAM-no-probe vs NDC",
        columns=["workload", "tdram_tag_ns", "tdram_noprobe_tag_ns",
                 "ndc_tag_ns", "probing_gain"],
        rows=rows,
        notes=("Paper: TDRAM without probing has tag-check latency similar to "
               "NDC; probing improves tag checks up to 70% on large workloads."),
    )
