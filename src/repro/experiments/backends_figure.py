"""Backend comparison: the paper's speedup figure over hybrid memory.

The paper evaluates TDRAM over DDR5 only (Fig. 12). This figure reruns
that comparison over each backing-store backend (``ddr5``,
``pcm_like``, ``cxl_like``) and — per backend — ablates TDRAM's two
latency-hiding mechanisms, answering the question the hybrid-memory
literature (TicToc, eDRAM-over-PCM) raises: do the flush buffer and
early-probe miss detection matter *more* when the backend has slow,
asymmetric writes?

Per backend the figure reports geomean speedups over that backend's own
``no_cache`` baseline for Cascade Lake, full TDRAM, TDRAM without
probing, and TDRAM with forced-only flush unloads, plus the two deltas
(``probe_delta``, ``flush_delta``) that isolate each mechanism's
contribution. Exposed as ``tdram-repro backends``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.figures import (
    Cell,
    ExperimentContext,
    FigureResult,
    geomean,
)

#: Backends the comparison sweeps (order = figure row order).
COMPARED_BACKENDS = ("ddr5", "pcm_like", "cxl_like")

#: column name -> (design, SystemConfig overrides); no_cache is implicit.
_VARIANTS: Tuple[Tuple[str, str, Dict[str, object]], ...] = (
    ("cascade_lake", "cascade_lake", {}),
    ("tdram", "tdram", {}),
    ("tdram_no_probe", "tdram", {"enable_probing": False}),
    ("tdram_forced_flush", "tdram", {"flush_unload_policy": "forced_only"}),
)


def backends_comparison(ctx: ExperimentContext) -> FigureResult:
    """Speedup-vs-no_cache per backend, with per-mechanism deltas.

    The backends x variants x workloads matrix runs as one campaign
    through ``ctx`` (the backend knobs are ``SystemConfig`` fields, so
    every point has a distinct cache key).
    """
    cells: List[Cell] = []
    for backend in COMPARED_BACKENDS:
        cells += ctx.cells(["no_cache"], memory_backend=backend)
        for _column, design, overrides in _VARIANTS:
            cells += ctx.cells([design], memory_backend=backend, **overrides)
    ctx.warm(cells)

    rows: List[Dict[str, object]] = []
    for backend in COMPARED_BACKENDS:
        row: Dict[str, object] = {"backend": backend}
        mm_lat: List[float] = []
        for column, design, overrides in _VARIANTS:
            speedups = []
            for spec in ctx.specs:
                result = ctx.result(design, spec, memory_backend=backend,
                                    **overrides)
                baseline = ctx.result("no_cache", spec,
                                      memory_backend=backend)
                speedups.append(result.speedup_over(baseline))
                if column == "tdram":
                    mm_lat.append(result.mm_read_latency_ns)
            row[column] = geomean(speedups)
        row["probe_delta"] = float(row["tdram"]) - float(row["tdram_no_probe"])
        row["flush_delta"] = (float(row["tdram"])
                              - float(row["tdram_forced_flush"]))
        row["mm_read_ns"] = geomean(mm_lat)
        rows.append(row)

    columns = (["backend"] + [column for column, _d, _o in _VARIANTS]
               + ["probe_delta", "flush_delta", "mm_read_ns"])
    return FigureResult(
        figure="Backends",
        title="Speedup over no_cache per backing-store backend",
        columns=columns,
        rows=rows,
        notes=("probe_delta / flush_delta isolate early probing and "
               "opportunistic flush unloading per backend; the hybrid "
               "backends (slow asymmetric writes, serialized link) show "
               "how much more a fast-miss-path cache buys over non-DDR5 "
               "media. See docs/backends.md."),
    )
