"""Command-line interface: regenerate any table/figure from a terminal.

Installed as ``tdram-repro``::

    tdram-repro list
    tdram-repro fig9                 # representative workload subset
    tdram-repro fig9 --jobs 4        # same, simulations fanned out
    tdram-repro fig11 --full-suite   # all 28 workloads (slow)
    tdram-repro predictor --demands 300 --workloads lu.C,ft.D
                                     # a §V study on two workloads
    tdram-repro run tdram ft.D       # one simulation, all metrics
    tdram-repro campaign --jobs 4    # designs x workloads sweep, cached
    tdram-repro campaign --resume    # serve finished tasks from the cache
    tdram-repro trace --workload synthetic --out trace.json
                                     # Perfetto-loadable lifecycle trace

Every figure, study and ablation target (everything but ``run``,
``trace`` and the analytic ``fig4``/``table1``/``ways``) runs
its matrix through one :class:`ExperimentContext` built from the
flags: ``--full-suite`` or ``--workloads`` pick the workloads,
``--demands`` and ``--seed`` the work quantum and seed, ``--jobs`` the
worker processes, and ``--cache-dir``/``--no-cache`` the result cache.
``flush`` sweeps buffer sizes on one workload: ft.D, or the one name
``--workloads`` gives. A target fails with a ``ConfigError``, before it
runs anything, if a flag it does not read is set away from its default
or if it gets a positional argument; only ``run`` (DESIGN WORKLOAD) and
``report`` (OUTPUT.md) read those.

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
from typing import Callable, Dict, List, Optional, Tuple

from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiments.ablations import tdram_ablation
from repro.experiments.campaign import ResultCache, run_campaign, tasks_for
from repro.experiments.figures import (
    EVALUATED_DESIGNS,
    ExperimentContext,
    FigureResult,
    fig01_hit_miss_breakdown,
    fig02_queueing_baselines,
    fig03_wasted_movement,
    fig04_overheads,
    fig09_tag_check,
    fig10_queueing,
    fig11_speedup_vs_cl,
    fig12_speedup_vs_nocache,
    fig13_energy,
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
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import full_suite, representative_suite, workload

#: Targets that simulate: each runs its matrix through one context.
_CONTEXT_TARGETS: Dict[str, Callable[[ExperimentContext], FigureResult]] = {
    "fig1": fig01_hit_miss_breakdown,
    "fig2": fig02_queueing_baselines,
    "fig3": fig03_wasted_movement,
    "fig9": fig09_tag_check,
    "fig10": fig10_queueing,
    "fig11": fig11_speedup_vs_cl,
    "fig12": fig12_speedup_vs_nocache,
    "fig13": fig13_energy,
    "table4": table4_bloat,
    "predictor": predictor_study,
    "prefetcher": prefetcher_study,
    "flush": flush_buffer_sensitivity,
    "setassoc": set_associativity_study,
    "ablation": probing_ablation,
    "tdram-ablation": tdram_ablation,
}

#: Analytic targets: tables computed without a simulation.
_ANALYTIC: Dict[str, Callable[[], FigureResult]] = {
    "fig4": fig04_overheads,
    "table1": table1_comparison,
    "ways": way_select_study,
}

#: The flags a simulating target reads: those of its ExperimentContext.
_CONTEXT_FLAGS = ("workloads", "full_suite", "demands", "seed", "jobs",
                  "cache_dir", "no_cache")

#: Every target and the flags it reads, by ``argparse`` dest; ``args``
#: marks the targets that read positional arguments. A flag a target
#: does not read must keep its default, and a target that does not read
#: ``args`` takes none (see ``_check_flags``).
_FLAGS_READ: Dict[str, Tuple[str, ...]] = {
    **dict.fromkeys(_CONTEXT_TARGETS, _CONTEXT_FLAGS),
    "report": ("args",) + _CONTEXT_FLAGS,
    "campaign": _CONTEXT_FLAGS + ("designs", "resume", "retries", "out"),
    "run": ("args", "demands", "seed"),
    "trace": ("workload", "design", "demands", "seed", "out", "epoch_us",
              "profile"),
    **dict.fromkeys([*_ANALYTIC, "list", "suite"], ()),
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
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdram-repro",
        description="Regenerate the TDRAM paper's tables and figures.",
    )
    parser.add_argument("target", help="figure/table name, 'list', or 'run'")
    parser.add_argument("args", nargs="*",
                        help="run: DESIGN WORKLOAD; report: OUTPUT.md")
    parser.add_argument("--full-suite", action="store_true",
                        help="use all 28 workloads instead of the fast subset")
    parser.add_argument("--demands", type=int, default=600,
                        help="work quantum per core (default 600)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation batches, "
                             "at least 1 (default 1 = serial)")
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
                        help="campaign, figures and studies: "
                             "comma-separated workload names (default: "
                             "representative suite; flush: one name, "
                             "default ft.D)")
    parser.add_argument("--retries", type=int, default=2,
                        help="campaign: extra attempts per task that "
                             "raised or lost its worker, at least 0 "
                             "(default 2)")
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
    return parser


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


def _specs(args) -> List[WorkloadSpec]:
    """The workloads ``--workloads`` or ``--full-suite`` pick."""
    if args.workloads:
        return [workload(name) for name in args.workloads.split(",")]
    return full_suite() if args.full_suite else representative_suite()


def _context(args) -> ExperimentContext:
    """The one context every simulating figure/study target runs in."""
    return ExperimentContext(specs=_specs(args),
                             demands_per_core=args.demands, seed=args.seed,
                             jobs=args.jobs, cache=_cache(args),
                             progress=_progress)


def _check_flags(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 target: str) -> None:
    """Raise a ``ConfigError`` naming every flag ``target`` does not read
    that is set away from its default, and every positional argument of
    a target that reads none: the target would ignore them."""
    unread = [f"--{dest.replace('_', '-')}"
              for dest, value in vars(args).items()
              if dest not in ("target", "args", *_FLAGS_READ[target])
              and value != parser.get_default(dest)]
    if "args" not in _FLAGS_READ[target]:
        unread += [repr(arg) for arg in args.args]
    if unread:
        raise ConfigError(
            f"tdram-repro {target} does not read {', '.join(unread)}; "
            f"drop {'it' if len(unread) == 1 else 'them'}")


def main(argv=None) -> int:
    """Run one ``tdram-repro`` target; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    target = args.target.lower()
    if target not in _FLAGS_READ:
        print(f"unknown target {target!r}; try 'tdram-repro list'",
              file=sys.stderr)
        return 2
    _check_flags(parser, args, target)
    if target == "list":
        print("available targets:", ", ".join(sorted(_FLAGS_READ)))
        print("designs (for run/campaign/--designs):")
        for name in sorted(_DESIGN_SUMMARIES):
            print(f"  {name:<14} {_DESIGN_SUMMARIES[name]}")
        return 0
    if target == "suite":
        from repro.workloads.suite import suite_summary

        print(suite_summary().render())
        return 0
    if target == "report":
        if len(args.args) != 1:
            print("usage: tdram-repro report OUTPUT.md", file=sys.stderr)
            return 2
        from repro.experiments.report_gen import generate_report

        titles = generate_report(args.args[0], _context(args))
        print(f"wrote {len(titles)} sections to {args.args[0]}")
        return 0
    if target == "trace":
        from repro.obs import ObsConfig

        config = SystemConfig.small().with_(obs=ObsConfig(
            trace=True, epoch_us=args.epoch_us, profile=args.profile,
        ))
        out = args.out or "trace.json"
        result = run_experiment(args.design, workload(args.workload),
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
        tasks = tasks_for(designs, _specs(args), config=SystemConfig.small(),
                          demands_per_core=args.demands, seeds=[args.seed])
        outcome = run_campaign(
            tasks, jobs=args.jobs, cache=_cache(args), reuse_cache=args.resume,
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
    if target == "run":
        if len(args.args) != 2:
            print("usage: tdram-repro run DESIGN WORKLOAD", file=sys.stderr)
            return 2
        design, workload_name = args.args
        result = run_experiment(design, workload_name,
                                config=SystemConfig.small(),
                                demands_per_core=args.demands, seed=args.seed)
        for key, value in sorted(vars(result).items()):
            print(f"{key}: {value}")
        return 0
    if target in _ANALYTIC:
        print(_ANALYTIC[target]().render())
        return 0
    if target == "flush" and args.workloads:
        ctx = _context(args)
        if len(ctx.specs) != 1:
            raise ConfigError(
                f"flush sweeps one workload, but --workloads names "
                f"{len(ctx.specs)}: {args.workloads}")
        print(flush_buffer_sensitivity(ctx, spec=ctx.specs[0]).render())
        return 0
    print(_CONTEXT_TARGETS[target](_context(args)).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
