"""Generic design-space sweeps over SystemConfig parameters.

Beyond the paper's own sensitivity studies (§V-D/E/F), these helpers
let a user sweep *any* configuration axis — cache capacity, channel
count, MLP, buffer sizes — and get a :class:`FigureResult` back. Used
by ``examples/design_space.py`` and the ablation benches.

Every sweep point is an independent simulation, so the whole sweep runs
as one campaign through the
:class:`~repro.experiments.figures.ExperimentContext` it is given: the
context's ``jobs`` fan the points out over worker processes and its
``cache`` persists results. The campaign key covers the swept
``SystemConfig``, so distinct points can never alias.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Iterable, List, Optional, Sequence

from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiments.figures import (
    Cell,
    ExperimentContext,
    FigureResult,
    geomean,
)

#: The names ``config_sweep`` can sweep: fields, not derived properties.
_FIELDS = frozenset(spec.name for spec in fields(SystemConfig))


def config_sweep(
    ctx: ExperimentContext,
    parameter: str,
    values: Sequence,
    design: str = "tdram",
    baseline_design: Optional[str] = "no_cache",
    hold_footprint: bool = False,
) -> FigureResult:
    """Sweep one ``SystemConfig`` field and report per-point geomeans.

    Parameters
    ----------
    ctx:
        The context whose config, workloads, work quantum and seed each
        point starts from; only ``parameter`` changes between points.
    parameter:
        Field name of :class:`SystemConfig` (e.g. ``cache_capacity_bytes``,
        ``max_outstanding_reads_per_core``, ``flush_buffer_entries``).
    hold_footprint:
        When sweeping the cache capacity, keep the *absolute* workload
        footprint fixed (workload footprints otherwise scale with the
        configured capacity).
    """
    if parameter not in _FIELDS:
        raise ConfigError(f"SystemConfig has no field {parameter!r}")

    designs = [design] if baseline_design is None else [baseline_design,
                                                        design]
    points = []
    cells: List[Cell] = []
    for value in values:
        specs = ctx.specs
        if hold_footprint and parameter == "cache_capacity_bytes":
            specs = [replace(spec, paper_footprint_bytes=int(
                spec.paper_footprint_bytes
                * ctx.config.cache_capacity_bytes / value))
                for spec in specs]
        points.append((value, specs))
        cells += ctx.cells(designs, specs, **{parameter: value})
    ctx.warm(cells)

    rows = []
    for value, specs in points:
        speedups = []
        tag_checks = []
        miss_ratios = []
        for spec in specs:
            result = ctx.result(design, spec, **{parameter: value})
            tag_checks.append(result.tag_check_ns)
            miss_ratios.append(result.miss_ratio)
            if baseline_design is not None:
                baseline = ctx.result(baseline_design, spec,
                                      **{parameter: value})
                speedups.append(result.speedup_over(baseline))
        row = {
            parameter: value,
            "tag_check_ns": geomean(tag_checks),
            "mean_miss_ratio": sum(miss_ratios) / len(miss_ratios),
        }
        if speedups:
            row[f"speedup_vs_{baseline_design}"] = geomean(speedups)
        rows.append(row)
    columns = list(rows[0].keys())
    return FigureResult(
        figure=f"Sweep: {parameter}",
        title=f"{design} across {parameter} = {list(values)}",
        columns=columns,
        rows=rows,
    )


def mlp_sweep(ctx: ExperimentContext,
              values: Iterable[int] = (1, 2, 4, 8, 16),
              **kwargs) -> FigureResult:
    """How sensitive are the results to the front end's per-core MLP?"""
    return config_sweep(ctx, "max_outstanding_reads_per_core", list(values),
                        **kwargs)


def channel_sweep(ctx: ExperimentContext,
                  values: Iterable[int] = (2, 4, 8),
                  **kwargs) -> FigureResult:
    """DRAM-cache channel-count sweep (bandwidth scaling)."""
    return config_sweep(ctx, "cache_channels", list(values), **kwargs)
