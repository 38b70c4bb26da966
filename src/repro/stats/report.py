"""Result reporting: JSON export and design-comparison tables.

Turns :class:`~repro.experiments.runner.RunResult` objects into
machine-readable JSON (for notebooks/CI) and human-readable comparison
tables (for terminals), without the caller touching field names.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Iterable, List, Optional, Sequence, Union


def result_to_dict(result) -> Dict[str, object]:
    """Flatten a RunResult (a dataclass) to JSON-serialisable types."""
    raw = dataclasses.asdict(result)
    raw["runtime_ns"] = result.runtime_ns
    return raw


def results_to_json(results: Union[Iterable, object], indent: int = 2) -> str:
    """Serialise one result or an iterable of results to JSON."""
    if dataclasses.is_dataclass(results):
        payload: object = result_to_dict(results)
    else:
        payload = [result_to_dict(r) for r in results]
    return json.dumps(payload, indent=indent, sort_keys=True)


#: Default columns for :func:`comparison_table`, (header, attribute,
#: format) triples.
DEFAULT_COLUMNS = (
    ("design", "design", "{}"),
    ("runtime(us)", "runtime_ps", "{:.2f}"),
    ("tag(ns)", "tag_check_ns", "{:.1f}"),
    ("qdelay(ns)", "queue_delay_ns", "{:.1f}"),
    ("rdlat(ns)", "read_latency_ns", "{:.1f}"),
    ("miss", "miss_ratio", "{:.2f}"),
    ("bloat", "bloat_factor", "{:.2f}"),
    ("energy(uJ)", "energy_pj", "{:.1f}"),
)

_SCALED = {"runtime_ps": 1e-6, "energy_pj": 1e-6}


def comparison_table(results: Sequence, columns=DEFAULT_COLUMNS,
                     baseline: Optional[str] = None) -> str:
    """Render results side by side; optionally add a speedup column.

    ``baseline`` names the design every other row's speedup is computed
    against (fixed-work runtime ratio).
    """
    rows: List[List[str]] = []
    base = None
    if baseline is not None:
        base = next((r for r in results if r.design == baseline), None)
        if base is None:
            raise ValueError(f"baseline design {baseline!r} not in results")
    headers = [header for header, _attr, _fmt in columns]
    if base is not None:
        headers.append(f"speedup_vs_{baseline}")
    for result in results:
        row = []
        for _header, attr, fmt in columns:
            value = getattr(result, attr)
            if attr in _SCALED:
                value = value * _SCALED[attr]
            row.append(fmt.format(value))
        if base is not None:
            row.append(f"{result.speedup_over(base):.3f}")
        rows.append(row)
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def breakdown_bar(breakdown: Dict[str, float], width: int = 50) -> str:
    """A Figure 1-style ASCII stacked bar of hit/miss categories.

    >>> print(breakdown_bar({"read_hit": 0.5, "read_miss_clean": 0.5},
    ...                     width=10))  # doctest: +SKIP
    RRRRRccccc
    """
    symbols = {
        "read_hit": "R",
        "write_hit": "W",
        "read_miss_clean": "c",
        "read_miss_dirty": "d",
        "write_miss_clean": "m",
        "write_miss_dirty": "x",
    }
    bar = []
    for name, symbol in symbols.items():
        bar.append(symbol * round(breakdown.get(name, 0.0) * width))
    text = "".join(bar)
    return (text + " " * width)[:width]
