"""Regeneration of every table and figure in the paper's evaluation.

Each ``figNN_*`` / ``tableN_*`` function warms the (design, workload)
simulations it reads through an :class:`ExperimentContext` and returns
a :class:`FigureResult` — the same rows/series the paper reports,
printable with :meth:`FigureResult.render`. The §V studies, the sweeps
and the ablations run their matrices through the same context.

The default workload set is :func:`repro.workloads.representative_suite`
(six workloads spanning both miss groups); pass
``specs=repro.workloads.full_suite()`` for the complete 28-workload
sweep the paper uses.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.cache.metrics import BREAKDOWN_CATEGORIES
from repro.config.system import SystemConfig
from repro.core.area import die_area_report, signal_report
from repro.experiments.campaign import (
    CampaignOutcome,
    CampaignTask,
    ProgressFn,
    ResultCache,
    run_campaign,
)
from repro.experiments.runner import RunResult
from repro.workloads.base import MissClass, WorkloadSpec
from repro.workloads.suite import representative_suite

#: Designs compared in the latency/speedup figures (order = paper's).
EVALUATED_DESIGNS = ("cascade_lake", "alloy", "bear", "ndc", "tdram")

#: Design-zoo frontier: the paper's designs plus the related-work
#: organizations riding the pluggable seam, bounded by Ideal.
FRONTIER_DESIGNS = EVALUATED_DESIGNS + ("gemini_hybrid", "tictoc", "ideal")

#: One simulation a figure reads: ``(design, spec, overrides)``, run
#: under ``ctx.config.with_(**overrides)``.
Cell = Tuple[str, WorkloadSpec, Mapping[str, object]]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (ignores non-positive values defensively)."""
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


@dataclass
class FigureResult:
    """One regenerated table/figure: labelled rows of numbers."""

    figure: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]]
    notes: str = ""

    def render(self) -> str:
        """Format as an aligned text table (the bench targets print this)."""
        widths = {c: len(c) for c in self.columns}
        formatted: List[Dict[str, str]] = []
        for row in self.rows:
            out = {}
            for column in self.columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    out[column] = f"{value:.3f}"
                else:
                    out[column] = str(value)
                widths[column] = max(widths[column], len(out[column]))
            formatted.append(out)
        lines = [f"== {self.figure}: {self.title} =="]
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for out in formatted:
            lines.append("  ".join(out[c].ljust(widths[c]) for c in self.columns))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


class ExperimentContext:
    """Runs and memoises the simulations of every figure and study.

    A context fixes what a run depends on besides its design and
    workload: the ``SystemConfig``, the work quantum and the seed. It
    also fixes how the runs execute: ``jobs`` worker processes, an
    optional on-disk ``cache`` (a :class:`ResultCache` or a directory
    path) and a ``progress`` callback. Each figure and study passes the
    cells it reads to :meth:`warm`, which runs the ones not yet
    memoised as one campaign, then reads them with :meth:`result`.

    Memoisation keys on the full campaign :func:`cache_key` — design,
    workload spec, ``SystemConfig`` with the cell's overrides, work
    quantum, and seed — so a context whose configuration changes (or
    two contexts sharing one on-disk cache with different configs) can
    never return a stale :class:`RunResult`.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        specs: Optional[List[WorkloadSpec]] = None,
        demands_per_core: int = 600,
        seed: int = 7,
        jobs: int = 1,
        cache: Optional[Union[ResultCache, str, Path]] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.config = config or SystemConfig.small()
        self.specs = specs if specs is not None else representative_suite()
        self.demands_per_core = demands_per_core
        self.seed = seed
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        self._memo: Dict[str, RunResult] = {}

    def with_specs(self, specs: Sequence[WorkloadSpec]) -> "ExperimentContext":
        """This context over ``specs``; the two share one memo."""
        view = copy.copy(self)
        view.specs = list(specs)
        return view

    def cells(self, designs: Iterable[str],
              specs: Optional[Sequence[WorkloadSpec]] = None,
              **overrides: object) -> List[Cell]:
        """``designs`` x ``specs`` (default: the context's workloads),
        each under the same config ``overrides``."""
        specs = self.specs if specs is None else specs
        return [(design, spec, overrides)
                for design in designs for spec in specs]

    def task(self, design: str, spec: WorkloadSpec,
             **overrides: object) -> CampaignTask:
        """The campaign task of one cell."""
        config = self.config.with_(**overrides) if overrides else self.config
        return CampaignTask(design=design, workload=spec, config=config,
                            demands_per_core=self.demands_per_core,
                            seed=self.seed)

    def result(self, design: str, spec: WorkloadSpec,
               **overrides: object) -> RunResult:
        """One memoised simulation under ``config.with_(**overrides)``;
        a cell not yet warmed runs as a one-cell campaign."""
        key = self.task(design, spec, **overrides).key
        if key not in self._memo:
            self.warm([(design, spec, overrides)])
        return self._memo[key]

    def warm(self, cells: Iterable[Cell]) -> CampaignOutcome:
        """Run every cell not yet memoised as one campaign, with the
        context's ``jobs``, ``cache`` and ``progress``; returns its
        outcome."""
        pending: Dict[str, CampaignTask] = {}
        for design, spec, overrides in cells:
            task = self.task(design, spec, **overrides)
            if task.key not in self._memo:
                pending.setdefault(task.key, task)
        outcome = run_campaign(list(pending.values()), jobs=self.jobs,
                               cache=self.cache, progress=self.progress)
        self._memo.update(outcome.by_key)
        return outcome

    def by_group(self, group: MissClass) -> List[WorkloadSpec]:
        """The context's workloads in one Fig. 1 miss-ratio group."""
        return [s for s in self.specs if s.miss_class is group]


# ---------------------------------------------------------------------------
# Figure 1 — hit/miss breakdown of the DRAM cache
# ---------------------------------------------------------------------------
def fig01_hit_miss_breakdown(ctx: ExperimentContext) -> FigureResult:
    """Fig. 1: per-workload breakdown into the six Table II categories."""
    columns = ["workload", "group"] + list(BREAKDOWN_CATEGORIES) + ["miss_ratio"]
    ctx.warm(ctx.cells(["cascade_lake"]))
    rows = []
    for spec in ctx.specs:
        result = ctx.result("cascade_lake", spec)
        row: Dict[str, object] = {
            "workload": spec.name,
            "group": spec.miss_class.value,
            "miss_ratio": result.miss_ratio,
        }
        row.update(result.breakdown)
        rows.append(row)
    return FigureResult(
        figure="Figure 1",
        title="DRAM cache hit/miss breakdown (fractions of demands)",
        columns=columns,
        rows=rows,
        notes="Paper: low-miss group < 30%, high-miss group > 50%, none between.",
    )


# ---------------------------------------------------------------------------
# Figure 2 — queueing delay of DRAM reads, baselines vs no-cache
# ---------------------------------------------------------------------------
def fig02_queueing_baselines(ctx: ExperimentContext) -> FigureResult:
    """Fig. 2: existing caches queue reads far longer than plain DDR5."""
    designs = ["no_cache", "cascade_lake", "alloy", "bear"]
    columns = ["workload"] + designs
    ctx.warm(ctx.cells(designs))
    rows = []
    for spec in ctx.specs:
        row: Dict[str, object] = {"workload": spec.name}
        for design in designs:
            row[design] = ctx.result(design, spec).queue_delay_ns
        rows.append(row)
    means = {d: geomean([r[d] for r in rows if r[d]]) for d in designs}
    rows.append({"workload": "geomean", **means})
    return FigureResult(
        figure="Figure 2",
        title="Average queueing delay of DRAM reads (ns)",
        columns=columns,
        rows=rows,
        notes="Paper: the DRAM-cache bars exceed the no-DRAM-cache system.",
    )


# ---------------------------------------------------------------------------
# Figure 3 — useful vs unuseful data movement
# ---------------------------------------------------------------------------
def fig03_wasted_movement(ctx: ExperimentContext) -> FigureResult:
    """Fig. 3: share of moved bytes that served no purpose."""
    designs = ["cascade_lake", "alloy", "bear"]
    columns = ["workload"] + [f"{d}_unuseful" for d in designs]
    ctx.warm(ctx.cells(designs))
    rows = []
    for spec in ctx.specs:
        row: Dict[str, object] = {"workload": spec.name}
        for design in designs:
            row[f"{design}_unuseful"] = ctx.result(design, spec).unuseful_fraction
        rows.append(row)
    return FigureResult(
        figure="Figure 3",
        title="Unuseful fraction of data movement (of total bytes moved)",
        columns=columns,
        rows=rows,
        notes=("Paper: ft/is/mg/ua waste the most; Alloy/BEAR's 80 B bursts "
               "raise the unuseful share over Cascade Lake."),
    )


# ---------------------------------------------------------------------------
# Figure 4A — overhead tables (analytic)
# ---------------------------------------------------------------------------
def fig04_overheads() -> FigureResult:
    """Fig. 4A + §III-C5: signal-count and die-area overheads."""
    area = die_area_report()
    signals = signal_report()
    rows = [
        {"quantity": "extra bus signals per 32-bit channel",
         "value": float(signals.extra_per_channel), "paper": 6.0},
        {"quantity": "extra CA+HM signals per stack",
         "value": float(signals.extra_channel_signals), "paper": 192.0},
        {"quantity": "total signals per stack",
         "value": float(signals.total_signals), "paper": 2164.0},
        {"quantity": "signal overhead vs HBM3 (frac)",
         "value": signals.overhead_fraction, "paper": 0.097},
        {"quantity": "fits in HBM3 unused bumps (1=yes)",
         "value": float(signals.fits_in_unused_bumps), "paper": 1.0},
        {"quantity": "tag-mat area overhead in even banks (frac)",
         "value": area.tag_mat_area_overhead, "paper": 0.243},
        {"quantity": "total die-area overhead (frac)",
         "value": area.total_die_overhead, "paper": 0.0824},
    ]
    return FigureResult(
        figure="Figure 4A",
        title="TDRAM interface and die-area overheads vs HBM3",
        columns=["quantity", "value", "paper"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 9 — tag check latency
# ---------------------------------------------------------------------------
def fig09_tag_check(ctx: ExperimentContext) -> FigureResult:
    """Fig. 9: TDRAM's tag check is 2.6x/2.65x/2x/1.82x faster."""
    columns = ["workload"] + list(EVALUATED_DESIGNS)
    ctx.warm(ctx.cells(EVALUATED_DESIGNS))
    rows = []
    for spec in ctx.specs:
        row: Dict[str, object] = {"workload": spec.name}
        for design in EVALUATED_DESIGNS:
            row[design] = ctx.result(design, spec).tag_check_ns
        rows.append(row)
    means = {d: geomean([r[d] for r in rows]) for d in EVALUATED_DESIGNS}
    rows.append({"workload": "geomean", **means})
    tdram = means["tdram"] or 1.0
    ratios = {d: means[d] / tdram for d in EVALUATED_DESIGNS}
    rows.append({"workload": "ratio_vs_tdram", **ratios})
    return FigureResult(
        figure="Figure 9",
        title="Tag check latency (ns); last row = slowdown vs TDRAM",
        columns=columns,
        rows=rows,
        notes="Paper ratios vs TDRAM: CL 2.6x, Alloy 2.65x, BEAR 2x, NDC 1.82x.",
    )


# ---------------------------------------------------------------------------
# Figure 10 — read-buffer queueing delay, all designs
# ---------------------------------------------------------------------------
def fig10_queueing(ctx: ExperimentContext) -> FigureResult:
    """Fig. 10: TDRAM's queueing delay is the shortest of all designs."""
    columns = ["workload"] + list(EVALUATED_DESIGNS)
    ctx.warm(ctx.cells(EVALUATED_DESIGNS))
    rows = []
    for spec in ctx.specs:
        row: Dict[str, object] = {"workload": spec.name}
        for design in EVALUATED_DESIGNS:
            row[design] = ctx.result(design, spec).queue_delay_ns
        rows.append(row)
    means = {d: geomean([r[d] for r in rows if r[d]]) for d in EVALUATED_DESIGNS}
    rows.append({"workload": "geomean", **means})
    return FigureResult(
        figure="Figure 10",
        title="Average queueing delay in the read buffer (ns)",
        columns=columns,
        rows=rows,
        notes="Paper: TDRAM shortest (early probing frees queue entries).",
    )


# ---------------------------------------------------------------------------
# Figures 11/12 — speedups
# ---------------------------------------------------------------------------
def fig11_speedup_vs_cl(ctx: ExperimentContext) -> FigureResult:
    """Fig. 11: speedup normalised to Cascade Lake (higher is better)."""
    designs = ["alloy", "bear", "ndc", "tdram", "ideal"]
    columns = ["workload"] + designs
    ctx.warm(ctx.cells(["cascade_lake"] + designs))
    rows = []
    for spec in ctx.specs:
        baseline = ctx.result("cascade_lake", spec)
        row: Dict[str, object] = {"workload": spec.name}
        for design in designs:
            row[design] = ctx.result(design, spec).speedup_over(baseline)
        rows.append(row)
    means = {d: geomean([r[d] for r in rows]) for d in designs}
    rows.append({"workload": "geomean", **means})
    return FigureResult(
        figure="Figure 11",
        title="Speedup over Cascade Lake (fixed work quantum)",
        columns=columns,
        rows=rows,
        notes=("Paper geomeans: TDRAM 1.20x over CL, 1.23x over Alloy, "
               "1.13x over BEAR, 1.08x over NDC; Ideal is the upper bound."),
    )


def fig12_speedup_vs_nocache(ctx: ExperimentContext) -> FigureResult:
    """Fig. 12: speedup normalised to a system with main memory only."""
    designs = ["cascade_lake", "alloy", "bear", "ndc", "tdram", "ideal"]
    columns = ["workload"] + designs
    ctx.warm(ctx.cells(["no_cache"] + designs))
    rows = []
    for spec in ctx.specs:
        baseline = ctx.result("no_cache", spec)
        row: Dict[str, object] = {"workload": spec.name}
        for design in designs:
            row[design] = ctx.result(design, spec).speedup_over(baseline)
        rows.append(row)
    means = {d: geomean([r[d] for r in rows]) for d in designs}
    rows.append({"workload": "geomean", **means})
    return FigureResult(
        figure="Figure 12",
        title="Speedup over the no-DRAM-cache system",
        columns=columns,
        rows=rows,
        notes=("Paper geomeans: CL 0.92x, Alloy 0.90x, BEAR 0.98x (slowdowns); "
               "NDC 1.03x, TDRAM 1.11x (speedups)."),
    )


# ---------------------------------------------------------------------------
# Figure 13 — relative energy
# ---------------------------------------------------------------------------
def fig13_energy(ctx: ExperimentContext) -> FigureResult:
    """Fig. 13: energy (power x runtime) normalised to Cascade Lake.

    The figure compares the DRAM-cache device + interface energy (the
    part the designs change); main-memory energy is a common cost.
    """
    designs = ["bear", "ndc", "tdram"]
    columns = ["workload", "alloy"] + designs
    ctx.warm(ctx.cells(["cascade_lake", "alloy"] + designs))
    rows = []
    for spec in ctx.specs:
        baseline = ctx.result("cascade_lake", spec).cache_energy_pj
        row: Dict[str, object] = {"workload": spec.name}
        row["alloy"] = ctx.result("alloy", spec).cache_energy_pj / baseline
        for design in designs:
            row[design] = ctx.result(design, spec).cache_energy_pj / baseline
        rows.append(row)
    means = {d: geomean([r[d] for r in rows]) for d in ["alloy"] + designs}
    rows.append({"workload": "geomean", **means})
    return FigureResult(
        figure="Figure 13",
        title="Relative energy vs Cascade Lake (lower is better)",
        columns=columns,
        rows=rows,
        notes=("Paper: TDRAM -21% vs CL and -12% vs BEAR (geomean); Alloy is "
               "higher than CL; NDC is comparable to TDRAM."),
    )


# ---------------------------------------------------------------------------
# Design-zoo frontier — hit latency vs bandwidth bloat vs capacity overhead
# ---------------------------------------------------------------------------
def capacity_overhead(design: str, config: SystemConfig) -> float:
    """Fraction of cache data capacity spent on metadata structures.

    Analytic (not simulated): the storage cost of each organization's
    tag/metadata scheme, the third axis of the frontier figure.
    """
    if design in ("cascade_lake", "gemini_hybrid"):
        # Tags ride the spare ECC bits of the line's own DRAM row; the
        # hybrid additionally keeps a ~2-byte hotness counter per frame.
        base = 0.0
        if design == "gemini_hybrid":
            base += 2.0 / 64.0
        return base
    if design in ("alloy", "bear"):
        # 80 B TADs: 16 bytes of tag+metadata transferred per 64 B line.
        return 16.0 / 64.0
    if design in ("ndc", "tdram"):
        # Dedicated tag mats on die (Fig. 4A total die-area overhead).
        return die_area_report().total_die_overhead
    if design == "tictoc":
        # Tags in ECC bits (CL array) + the on-die SRAM structures:
        # ~8 bytes per tag-cache entry, amortised over the data capacity.
        sram_bytes = 8.0 * config.tictoc_tag_cache_entries
        return sram_bytes / max(1, config.cache_capacity_bytes)
    return 0.0


def frontier_design_zoo(ctx: ExperimentContext) -> FigureResult:
    """Cross-design frontier: latency vs bloat vs capacity overhead.

    The scenario-diversity figure ROADMAP item 4 asks for — every
    organization in the zoo on the three axes a deployment trades
    between. All per-workload values are geomean-aggregated; a design
    that completed zero demands (an empty measured region) reports 0.0
    rather than dividing by nothing.
    """
    columns = ["design", "tag_check_ns", "read_latency_ns", "bloat_factor",
               "miss_ratio", "capacity_overhead"]
    ctx.warm(ctx.cells(FRONTIER_DESIGNS))
    rows: List[Dict[str, object]] = []
    for design in FRONTIER_DESIGNS:
        results = [ctx.result(design, spec) for spec in ctx.specs]
        rows.append({
            "design": design,
            "tag_check_ns": geomean([r.tag_check_ns for r in results]),
            "read_latency_ns": geomean([r.read_latency_ns for r in results]),
            "bloat_factor": geomean([r.bloat_factor for r in results]),
            "miss_ratio": geomean([r.miss_ratio for r in results]),
            "capacity_overhead": capacity_overhead(design, ctx.config),
        })
    return FigureResult(
        figure="Frontier",
        title="Design-zoo frontier: hit latency / bandwidth bloat / capacity",
        columns=columns,
        rows=rows,
        notes=("gemini_hybrid and tictoc ride the organization seam; "
               "capacity_overhead is analytic (metadata bytes per data byte)."),
    )


# ---------------------------------------------------------------------------
# Table IV — bandwidth bloat factor
# ---------------------------------------------------------------------------
PAPER_TABLE4 = {
    "cascade_lake": {"low": 1.35, "high": 2.75},
    "alloy": {"low": 1.68, "high": 3.43},
    "bear": {"low": 1.41, "high": 2.40},
    "ndc": {"low": 1.13, "high": 2.06},
    "tdram": {"low": 1.13, "high": 2.06},
}


def table4_bloat(ctx: ExperimentContext) -> FigureResult:
    """Table IV: geomean bandwidth-bloat factor per miss-ratio group."""
    rows = []
    group_specs = {
        "low": ctx.by_group(MissClass.LOW),
        "high": ctx.by_group(MissClass.HIGH),
    }
    ctx.warm(ctx.cells(EVALUATED_DESIGNS,
                       group_specs["low"] + group_specs["high"]))
    measured: Dict[str, Dict[str, float]] = {}
    for design in EVALUATED_DESIGNS:
        measured[design] = {}
        row: Dict[str, object] = {"design": design}
        for group, specs in group_specs.items():
            value = geomean([ctx.result(design, s).bloat_factor for s in specs]) \
                if specs else 0.0
            measured[design][group] = value
            row[f"{group}_miss"] = value
            row[f"paper_{group}"] = PAPER_TABLE4[design][group]
        rows.append(row)
    tdram = measured["tdram"]
    for design in ("cascade_lake", "alloy", "bear", "ndc"):
        row = {"design": f"tdram_reduction_vs_{design}"}
        for group in ("low", "high"):
            base = measured[design][group]
            row[f"{group}_miss"] = (base - tdram[group]) / base if base else 0.0
            paper_base = PAPER_TABLE4[design][group]
            row[f"paper_{group}"] = (
                (paper_base - PAPER_TABLE4["tdram"][group]) / paper_base
            )
        rows.append(row)
    return FigureResult(
        figure="Table IV",
        title="Bandwidth bloat factor (geomean per miss group)",
        columns=["design", "low_miss", "paper_low", "high_miss", "paper_high"],
        rows=rows,
    )
