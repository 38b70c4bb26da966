#!/usr/bin/env python
"""Golden-run table: committed digests of whole simulation results.

``tests/golden_runs.json`` pins the simulator's output bit for bit. Each
cell is one :func:`repro.experiments.runner.run_experiment` call on
``SystemConfig.small()`` (150 demands per core, seed 11). It records
the SHA-256 of ``json.dumps(dataclasses.asdict(result), sort_keys=True)``,
a short hash of each top-level ``RunResult`` field (so a moved cell
names the fields that moved), and a few headline fields a reader can
compare by eye. The cells are every design on:

* ``ft.D``, a high-miss workload on which the cache designs fetch,
  fill and write back;
* ``bfs.22``, which never misses after prewarm at this size, so its
  cells pin the hit path;
* the synthetic ``write_storm``: 70 % writes, conflict-heavy.

A row is keyed ``design/workload/ddr5/write_allocate``. The suffix names
the backing store and the allocation policy, the only ones the
simulator has; it stays so that every key equals the key the same cell
had when other stores and policies were simulated, and a row's history
can be followed across those changes.

Usage::

    python tools/golden_runs.py    # rewrite tests/golden_runs.json

Rewriting refuses to change any cell's digest unless
``repro.experiments.campaign.CACHE_VERSION`` is greater than the
``cache_version`` stored in the file, so a change to simulated results
always comes with a result-cache invalidation. It prints one line per
row it drops or adds, so a cell that leaves the table, or is renamed,
is named.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.cache import DESIGNS  # noqa: E402 - path set up above
from repro.config.system import SystemConfig  # noqa: E402
from repro.experiments.campaign import CACHE_VERSION  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402

GOLDEN_PATH = ROOT / "tests" / "golden_runs.json"
DEMANDS_PER_CORE = 150
SEED = 11
WORKLOADS = ("ft.D", "bfs.22", "write_storm")
#: RunResult fields stored next to the digest, shown when a cell moves
HEADLINE = ("runtime_ps", "miss_ratio", "sim_events")
#: hex digits kept of each field's own SHA-256
FIELD_HASH_CHARS = 12

#: (design, workload)
Cell = Tuple[str, str]


def cells() -> List[Cell]:
    """Every cell of the table, in run order."""
    return [(design, workload)
            for workload in WORKLOADS
            for design in sorted(DESIGNS)]


def cell_key(cell: Cell) -> str:
    """The cell's row name in the JSON file."""
    design, workload = cell
    return f"{design}/{workload}/ddr5/write_allocate"


def _sha256(value: object) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def row_for(fields: Dict[str, object]) -> Dict[str, object]:
    """A cell's row from its ``asdict(RunResult)``: the whole-result
    digest, a short hash per top-level field, and the headline fields."""
    row: Dict[str, object] = {
        "sha256": _sha256(fields),
        "fields": {name: _sha256(value)[:FIELD_HASH_CHARS]
                   for name, value in fields.items()},
    }
    row.update((name, fields[name]) for name in HEADLINE)
    return row


def run_cell(cell: Cell) -> Dict[str, object]:
    """Simulate one cell; return its row (see :func:`row_for`)."""
    design, workload = cell
    result = run_experiment(design, workload,
                            config=SystemConfig.small(),
                            demands_per_core=DEMANDS_PER_CORE, seed=SEED)
    return row_for(dataclasses.asdict(result))


def load(path: Path = GOLDEN_PATH) -> Dict[str, Any]:
    """The committed table: ``{"cache_version": int, "cells": {...}}``."""
    with open(path, encoding="utf-8") as handle:
        table: Dict[str, Any] = json.load(handle)
    return table


def moved_fields(expected: Dict[str, object],
                 actual: Dict[str, object]) -> List[str]:
    """The ``RunResult`` fields whose hash differs between two rows, a
    field present in only one of them included."""
    old: Any = expected.get("fields", {})
    new: Any = actual.get("fields", {})
    return sorted(name for name in set(old) | set(new)
                  if old.get(name) != new.get(name))


def describe_drift(key: str, expected: Dict[str, object],
                   actual: Dict[str, object]) -> str:
    """One line naming the fields that moved in a cell, with the old and
    new values of the headline fields among them."""
    moved = moved_fields(expected, actual)
    headline = [f"{name} {expected.get(name)!r} -> {actual.get(name)!r}"
                for name in HEADLINE if expected.get(name) != actual.get(name)]
    return (f"{key}: digest changed; fields moved: "
            + (", ".join(moved) if moved else "none")
            + ("; " + ", ".join(headline) if headline else ""))


def rewrite(fresh: Dict[str, Dict[str, object]],
            path: Path = GOLDEN_PATH) -> int:
    """Write ``fresh`` cells to ``path``; refuse (return 1) if a digest
    moved and ``CACHE_VERSION`` is not past the file's version. Rows of
    an existing file that ``fresh`` drops or adds are named, one line
    each."""
    old: Dict[str, Dict[str, object]] = {}
    old_version = 0
    if path.exists():
        table = load(path)
        old = table["cells"]
        old_version = table["cache_version"]
        for key in sorted(set(old) - set(fresh)):
            print(f"{key}: row dropped")
        for key in sorted(set(fresh) - set(old)):
            print(f"{key}: row added")
    drift = [describe_drift(key, old[key], row)
             for key, row in fresh.items()
             if key in old and old[key]["sha256"] != row["sha256"]]
    for line in drift:
        print(line)
    if drift and CACHE_VERSION <= old_version:
        print(f"refusing to rewrite {len(drift)} moved cell(s): bump "
              f"repro.experiments.campaign.CACHE_VERSION (now "
              f"{CACHE_VERSION}) past the file's cache_version "
              f"{old_version}")
        return 1
    payload = {"cache_version": CACHE_VERSION, "cells": fresh}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fresh)} cells to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(rewrite({cell_key(cell): run_cell(cell) for cell in cells()}))
