"""Command-line interface: regenerate any table/figure from a terminal.

Installed as ``tdram-repro``::

    tdram-repro list
    tdram-repro fig9                 # representative workload subset
    tdram-repro fig9 --jobs 4        # same, simulations fanned out
    tdram-repro fig11 --full-suite   # all 28 workloads (slow)
    tdram-repro run tdram ft.D       # one simulation, all metrics
    tdram-repro campaign --jobs 4    # designs x workloads sweep, cached
    tdram-repro campaign --resume    # serve finished tasks from the cache
    tdram-repro campaign --backend pcm_like
                                     # same sweep over a PCM-like store
    tdram-repro run tdram ft.D --sampled
                                     # SMARTS-style sampled estimate
                                     # with confidence intervals
    tdram-repro backends --jobs 4    # DDR5 vs PCM vs CXL speedup figure
    tdram-repro trace --workload synthetic --out trace.json
                                     # Perfetto-loadable lifecycle trace

Simulation-backed targets share a content-addressed on-disk result
cache (``--cache-dir``, default ``.tdram_cache``; ``--no-cache``
disables it), so re-running a figure or sweep only simulates what
changed. The cache is also the campaign's checkpoint: after a crash,
``campaign --resume`` simulates only the tasks it does not hold. See
``docs/campaign.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable, Dict, Optional

from repro.config.system import SystemConfig
from repro.experiments.campaign import ResultCache, run_campaign, tasks_for
from repro.sim.sampling import SamplingConfig
from repro.experiments.figures import (
    EVALUATED_DESIGNS,
    FIGURE_DESIGNS,
    ExperimentContext,
    fig01_hit_miss_breakdown,
    fig02_queueing_baselines,
    fig03_wasted_movement,
    fig04_overheads,
    fig09_tag_check,
    fig10_queueing,
    fig11_speedup_vs_cl,
    fig12_speedup_vs_nocache,
    fig13_energy,
    frontier_design_zoo,
    table4_bloat,
)
from repro.experiments.runner import run_experiment
from repro.experiments.studies import (
    flush_buffer_sensitivity,
    predictor_study,
    prefetcher_study,
    probing_ablation,
    set_associativity_study,
    way_select_study,
)
from repro.experiments.tables import table1_comparison
from repro.workloads.suite import (
    any_workload,
    demand_stream,
    full_suite,
    representative_suite,
    workload,
)
from repro.workloads.trace import capture_trace, trace_stats


def _tdram_ablation_lazy(**kwargs):
    from repro.experiments.ablations import tdram_ablation

    return tdram_ablation(**kwargs)


def _backends_lazy(**kwargs):
    from repro.experiments.backends_figure import backends_comparison

    return backends_comparison(**kwargs)

_CONTEXT_FIGURES: Dict[str, Callable] = {
    "fig1": fig01_hit_miss_breakdown,
    "fig2": fig02_queueing_baselines,
    "fig3": fig03_wasted_movement,
    "fig9": fig09_tag_check,
    "fig10": fig10_queueing,
    "fig11": fig11_speedup_vs_cl,
    "fig12": fig12_speedup_vs_nocache,
    "fig13": fig13_energy,
    "table4": table4_bloat,
    "frontier": frontier_design_zoo,
}

#: One-line summary per registered design, shown by ``tdram-repro list``.
#: ``tests/test_cli.py`` fails if this table and ``repro.cache.DESIGNS``
#: ever disagree — every design a campaign can run must be
#: discoverable from the CLI, and vice versa.
_DESIGN_SUMMARIES: Dict[str, str] = {
    "cascade_lake": "tags in ECC bits, direct-mapped (paper baseline)",
    "alloy": "tag+data TAD in one 80 B burst",
    "bear": "Alloy + bandwidth-efficient fill/writeback probes",
    "ndc": "dedicated tag mats, same-bank tag+data",
    "tdram": "the paper's tag-enhanced DRAM (parallel tag+data, HM bus)",
    "ideal": "perfect tag knowledge, zero tag cost (upper bound)",
    "no_cache": "main memory only (no DRAM cache)",
    "gemini_hybrid": "hot lines direct-mapped, cold lines set-associative",
    "tictoc": "SRAM tag cache + dirty-region list deciding probe-vs-bypass",
}

_STANDALONE: Dict[str, Callable] = {
    "fig4": fig04_overheads,
    "table1": table1_comparison,
    "predictor": predictor_study,
    "prefetcher": prefetcher_study,
    "flush": flush_buffer_sensitivity,
    "setassoc": set_associativity_study,
    "ways": way_select_study,
    "ablation": probing_ablation,
    "tdram-ablation": _tdram_ablation_lazy,
    "backends": _backends_lazy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdram-repro",
        description="Regenerate the TDRAM paper's tables and figures.",
    )
    parser.add_argument("target", help="figure/table name, 'list', or 'run'")
    parser.add_argument("args", nargs="*", help="for 'run': DESIGN WORKLOAD")
    parser.add_argument("--full-suite", action="store_true",
                        help="use all 28 workloads instead of the fast subset")
    parser.add_argument("--demands", type=int, default=600,
                        help="work quantum per core (default 600)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ras-mode", default="single",
                        choices=("random", "single", "double"),
                        help="fault campaign for 'ras' (default single)")
    parser.add_argument("--ras-rate", type=float, default=0.5,
                        help="per-tick injection probability (default 0.5)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation batches "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk result cache directory (default "
                             "$TDRAM_CACHE_DIR or .tdram_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache entirely")
    parser.add_argument("--resume", action="store_true",
                        help="campaign: reuse cached results instead of "
                             "re-simulating every task")
    parser.add_argument("--designs", default=None,
                        help="campaign: comma-separated designs "
                             "(default: the five evaluated designs)")
    parser.add_argument("--workloads", default=None,
                        help="campaign: comma-separated workload names "
                             "(default: representative suite)")
    parser.add_argument("--retries", type=int, default=2,
                        help="campaign: extra attempts per task that "
                             "raised or lost its worker (default 2)")
    parser.add_argument("--out", default=None,
                        help="campaign: write all RunResults to this JSON "
                             "file; trace: output path (default trace.json)")
    parser.add_argument("--workload", default="synthetic",
                        help="trace: workload name — suite (e.g. ft.D) or "
                             "synthetic (default synthetic)")
    parser.add_argument("--design", default="tdram",
                        help="trace: cache design to trace (default tdram)")
    parser.add_argument("--epoch-us", type=float, default=5.0,
                        help="trace: epoch sampling period in simulated "
                             "microseconds, 0 disables (default 5)")
    parser.add_argument("--profile", action="store_true",
                        help="trace: also profile the event kernel")
    parser.add_argument("--trace", action="store_true",
                        help="campaign: record a Chrome trace per run "
                             "beside its cached result")
    parser.add_argument("--backend", default="ddr5",
                        help="campaign/run: backing-store backend model "
                             "(ddr5, pcm_like, cxl_like; default ddr5 — "
                             "see docs/backends.md)")
    parser.add_argument("--determinism", action="store_true",
                        help="selfcheck: also run one synthetic workload "
                             "twice with the same seed and require "
                             "bit-identical counters/epochs")
    parser.add_argument("--sampled", action="store_true",
                        help="campaign/run: SMARTS-style sampled "
                             "simulation — detailed windows + functional "
                             "fast-forward; results carry per-metric "
                             "confidence intervals and are cached under "
                             "their own key, never served for exact "
                             "requests (see docs/performance.md)")
    parser.add_argument("--sample-detail", type=int, default=100,
                        help="sampled: demands per core simulated in "
                             "detail per window (default 100)")
    parser.add_argument("--sample-fastforward", type=int, default=400,
                        help="sampled: demands per core fast-forwarded "
                             "between windows (default 400)")
    parser.add_argument("--sample-confidence", type=float, default=0.95,
                        help="sampled: confidence level of the reported "
                             "intervals (0.90, 0.95, or 0.99; default "
                             "0.95)")
    return parser


def _speed_config(config: SystemConfig, args) -> SystemConfig:
    """Apply the --sampled speed knob to a base config."""
    if args.sampled:
        config = config.with_(sampling=SamplingConfig(
            enabled=True,
            detail_demands=args.sample_detail,
            fastforward_demands=args.sample_fastforward,
            confidence=args.sample_confidence,
        ))
    return config


def _cache(args) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    root = (args.cache_dir or os.environ.get("TDRAM_CACHE_DIR")
            or ".tdram_cache")
    return ResultCache(root)


def _progress(done: int, total: int, label: str, source: str,
              eta_s: Optional[float]) -> None:
    eta = f"  eta {eta_s:.0f}s" if eta_s is not None else ""
    print(f"[{done}/{total}] {label} {source}{eta}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint engine owns its own flags (--json, --select, ...),
        # so it gets the raw argv tail instead of this parser.
        from repro.analysis.cli import main as lint_main

        return lint_main(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    target = args.target.lower()
    if target == "list":
        names = sorted(list(_CONTEXT_FIGURES) + list(_STANDALONE)
                       + ["campaign", "lint", "ras", "run",
                          "report", "selfcheck", "suite", "trace",
                          "trace-capture", "trace-stats"])
        print("available targets:", ", ".join(names))
        print("designs (for run/campaign/--designs):")
        for name in sorted(_DESIGN_SUMMARIES):
            print(f"  {name:<14} {_DESIGN_SUMMARIES[name]}")
        return 0
    if target == "selfcheck":
        from repro.validation import render_selfcheck, run_selfcheck

        results = run_selfcheck()
        if args.determinism:
            from repro.validation import run_determinism_check

            results = results + run_determinism_check(seed=args.seed)
        print(render_selfcheck(results))
        return 0 if all(r.passed for r in results) else 1
    if target == "suite":
        from repro.workloads.suite import suite_summary

        print(suite_summary().render())
        return 0
    if target == "report":
        if len(args.args) != 1:
            print("usage: tdram-repro report OUTPUT.md", file=sys.stderr)
            return 2
        from repro.experiments.report_gen import generate_report

        specs = full_suite() if args.full_suite else None
        ctx = ExperimentContext(specs=specs, demands_per_core=args.demands,
                                seed=args.seed, jobs=args.jobs,
                                cache=_cache(args))
        if args.jobs > 1:
            needed = sorted({design for designs in FIGURE_DESIGNS.values()
                             for design in designs})
            ctx.warm(needed, jobs=args.jobs, progress=_progress)
        titles = generate_report(args.args[0], ctx)
        print(f"wrote {len(titles)} sections to {args.args[0]}")
        return 0
    if target == "trace":
        from repro.obs import ObsConfig

        config = SystemConfig.small().with_(obs=ObsConfig(
            trace=True, epoch_us=args.epoch_us, profile=args.profile,
        ))
        out = args.out or "trace.json"
        result = run_experiment(args.design, any_workload(args.workload),
                                config=config, demands_per_core=args.demands,
                                seed=args.seed, trace_out=out)
        with open(out, "r", encoding="utf-8") as handle:
            events = len(json.load(handle)["traceEvents"])
        print(f"# {args.design}/{args.workload} seed={args.seed}")
        print(f"wrote {events} trace events to {out} "
              "(load at https://ui.perfetto.dev)")
        if result.epochs:
            print(f"epoch series: {len(result.epochs['t_us'])} rows x "
                  f"{len(result.epochs)} columns "
                  f"(every {args.epoch_us} us)")
        if result.profile:
            from repro.obs.profiler import render_profile

            print(render_profile(result.profile))
        return 0
    if target == "campaign":
        designs = (args.designs.split(",") if args.designs
                   else list(EVALUATED_DESIGNS))
        if args.workloads:
            specs = [workload(name) for name in args.workloads.split(",")]
        elif args.full_suite:
            specs = full_suite()
        else:
            specs = representative_suite()
        config = _speed_config(
            SystemConfig.small().with_(memory_backend=args.backend), args)
        cache = _cache(args)
        trace_dir = None
        if args.trace:
            from repro.obs import ObsConfig

            config = config.with_(obs=ObsConfig(trace=True))
            trace_dir = str(cache.root) if cache is not None else ".tdram_cache"
        tasks = tasks_for(designs, specs, config=config,
                          demands_per_core=args.demands, seeds=[args.seed],
                          trace_dir=trace_dir)
        outcome = run_campaign(
            tasks, jobs=args.jobs, cache=cache, reuse_cache=args.resume,
            retries=args.retries, progress=_progress, strict=False,
        )
        if args.out:
            payload = [
                {"design": task.design, "workload": task.workload.name,
                 "seed": task.seed, "key": task.key,
                 "result": dataclasses.asdict(result)
                 if result is not None else None}
                for task, result in zip(tasks, outcome.results)
            ]
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            print(f"wrote {len(payload)} results to {args.out}")
        for key, message in sorted(outcome.failures.items()):
            print(f"FAILED {message}", file=sys.stderr)
        print(outcome.summary())
        return 0 if outcome.ok else 1
    if target == "trace-capture":
        if len(args.args) != 3:
            print("usage: tdram-repro trace-capture WORKLOAD PATH COUNT",
                  file=sys.stderr)
            return 2
        name, path, count = args.args
        stream = demand_stream(workload(name), SystemConfig.small(), 0, 8,
                               seed=args.seed)
        written = capture_trace(path, stream, int(count),
                                header=f"workload: {name}  seed: {args.seed}")
        print(f"wrote {written} records to {path}")
        return 0
    if target == "trace-stats":
        if len(args.args) != 1:
            print("usage: tdram-repro trace-stats PATH", file=sys.stderr)
            return 2
        stats = trace_stats(args.args[0])
        print(f"records: {stats.records}  reads: {stats.reads}  "
              f"writes: {stats.writes}")
        print(f"footprint: {stats.footprint_bytes / 2**20:.1f} MiB  "
              f"mean gap: {stats.mean_gap_ns:.1f} ns")
        return 0
    if target == "ras":
        from repro.ras.config import RasConfig
        from repro.stats.report import ras_report

        if len(args.args) > 2:
            print("usage: tdram-repro ras [DESIGN] [WORKLOAD]",
                  file=sys.stderr)
            return 2
        design = args.args[0] if len(args.args) > 0 else "tdram"
        workload_name = args.args[1] if len(args.args) > 1 else "bfs.22"
        campaign = RasConfig.campaign(args.seed, mode=args.ras_mode,
                                      rate=args.ras_rate)
        config = SystemConfig.small().with_(cache_ways=4, ras=campaign)
        result = run_experiment(design, workload_name, config=config,
                                demands_per_core=args.demands, seed=args.seed)
        print(f"# {design}/{workload_name} campaign={args.ras_mode} "
              f"rate={args.ras_rate} seed={args.seed}")
        print(ras_report(result.ras))
        return 0
    if target == "run":
        if len(args.args) != 2:
            print("usage: tdram-repro run DESIGN WORKLOAD", file=sys.stderr)
            return 2
        design, workload_name = args.args
        config = _speed_config(
            SystemConfig.small().with_(memory_backend=args.backend), args)
        result = run_experiment(design, workload_name, config=config,
                                demands_per_core=args.demands, seed=args.seed)
        for key, value in sorted(vars(result).items()):
            print(f"{key}: {value}")
        return 0
    if target in _STANDALONE:
        kwargs = {}
        if target in ("tdram-ablation", "backends"):
            kwargs = {"jobs": args.jobs, "cache": _cache(args)}
            if args.jobs > 1:
                kwargs["progress"] = _progress
            if target == "backends":
                kwargs["demands_per_core"] = args.demands
        print(_STANDALONE[target](**kwargs).render())
        return 0
    if target in _CONTEXT_FIGURES:
        specs = full_suite() if args.full_suite else None
        ctx = ExperimentContext(specs=specs, demands_per_core=args.demands,
                                seed=args.seed, jobs=args.jobs,
                                cache=_cache(args))
        if args.jobs > 1 and target in FIGURE_DESIGNS:
            ctx.warm(FIGURE_DESIGNS[target], jobs=args.jobs,
                     progress=_progress)
        print(_CONTEXT_FIGURES[target](ctx).render())
        return 0
    print(f"unknown target {target!r}; try 'tdram-repro list'", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
