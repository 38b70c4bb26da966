"""Whole-run bit-identity against the committed golden table.

``tests/golden_runs.json`` holds a SHA-256 of the full ``RunResult`` for
every design on ``ft.D``, ``bfs.22`` and ``write_storm``, on a small
configuration (see ``tools/golden_runs.py``), plus a short hash of each
top-level field. Any change to simulated results, event count included, fails
here and names the fields that moved; regenerating the table needs a
``CACHE_VERSION`` bump, which the version test below enforces.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden_runs  # noqa: E402

from repro.experiments.campaign import CACHE_VERSION  # noqa: E402
from repro.experiments.runner import RunResult  # noqa: E402

GOLDEN = golden_runs.load()


def test_table_matches_cache_version():
    assert GOLDEN["cache_version"] == CACHE_VERSION, (
        "regenerate tests/golden_runs.json with tools/golden_runs.py "
        "after bumping CACHE_VERSION")


def test_rewrite_refuses_moved_digest_without_version_bump(tmp_path):
    path = tmp_path / "golden.json"
    key = "tdram/bfs.22/ddr5/write_allocate"
    golden_runs.rewrite({key: {"sha256": "old"}}, path)
    before = path.read_text()
    assert golden_runs.rewrite({key: {"sha256": "new"}}, path) == 1
    assert path.read_text() == before
    table = golden_runs.load(path)
    table["cache_version"] = CACHE_VERSION - 1
    path.write_text(json.dumps(table))
    assert golden_runs.rewrite({key: {"sha256": "new"}}, path) == 0
    assert golden_runs.load(path) == {"cache_version": CACHE_VERSION,
                                      "cells": {key: {"sha256": "new"}}}


def test_rewrite_names_dropped_and_added_rows(tmp_path, capsys):
    path = tmp_path / "golden.json"
    kept = "tdram/bfs.22/ddr5/write_allocate"
    dropped = "tdram/ft.D/ddr5/write_only"
    added = "alloy/ft.D/ddr5/write_only"
    golden_runs.rewrite({kept: {"sha256": "a"}, dropped: {"sha256": "b"}},
                        path)
    capsys.readouterr()
    assert golden_runs.rewrite({kept: {"sha256": "a"},
                                added: {"sha256": "b"}}, path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{dropped}: row dropped" in lines
    assert f"{added}: row added" in lines
    assert not any(kept in line for line in lines)
    assert set(golden_runs.load(path)["cells"]) == {kept, added}


def test_drift_names_the_moved_field():
    fields = {"runtime_ps": 1000, "miss_ratio": 0.5, "sim_events": 40,
              "events": {"probe_hit": 3}, "backend": {}}
    moved = dict(fields, events={"probe_hit": 4})
    expected, actual = golden_runs.row_for(fields), golden_runs.row_for(moved)
    assert expected["sha256"] != actual["sha256"]
    assert golden_runs.moved_fields(expected, actual) == ["events"]
    line = golden_runs.describe_drift("tdram/ft.D/ddr5/write_allocate",
                                      expected, actual)
    assert "fields moved: events" in line
    assert "runtime_ps" not in line


def test_every_row_hashes_every_result_field():
    names = {spec.name for spec in dataclasses.fields(RunResult)}
    for key, row in GOLDEN["cells"].items():
        assert set(row["fields"]) == names, key


def test_table_has_every_cell():
    expected = {golden_runs.cell_key(cell) for cell in golden_runs.cells()}
    assert set(GOLDEN["cells"]) == expected


@pytest.mark.parametrize("cell", golden_runs.cells(),
                         ids=golden_runs.cell_key)
def test_cell_matches_golden(cell):
    key = golden_runs.cell_key(cell)
    expected = GOLDEN["cells"][key]
    actual = golden_runs.run_cell(cell)
    assert actual == expected, golden_runs.describe_drift(key, expected,
                                                          actual)
