"""Smoke test of the end-to-end benchmark: tiny quantum, one round, the
first cell of each workload. Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from benchmarks.e2e.worker import (ROOT, WORKLOADS, Ledger, PhaseClock,
                                   digest)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TINY = ["--seed", "7", "--demands", "60", "--rounds", "1", "--first-cell"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *TINY, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(out.read_text(encoding="utf-8"))
    trace = json.loads(out.with_name("results_trace.json")
                       .read_text(encoding="utf-8"))
    return proc.stdout, out, results, trace


def test_declaration_is_within_the_caps():
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_every_declared_metric_is_printed_with_its_unit(smoke):
    stdout, _, _, _ = smoke
    lines = stdout.splitlines()
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"]:
            row = re.compile(rf"{workload}\s+{re.escape(metric['name'])}"
                             rf"\s+\S+\s+{re.escape(metric['unit'])}\s")
            assert any(row.match(line) for line in lines), metric
    for metric in BENCH["per_layer"]:
        row = re.compile(rf"{re.escape(metric['name'])}\s+"
                         rf"{re.escape(metric['unit'])}(\s+\S+){{4}}\s*\Z")
        assert any(row.match(line) for line in lines), metric


def test_measured_metrics_are_the_declared_ones(smoke):
    _, _, results, trace = smoke
    for workload in WORKLOADS:
        for kind, measured in (
                ("end_to_end", results["workloads"][workload]["end_to_end"]),
                ("per_layer", trace["workloads"][workload])):
            declared = {m["name"]: m["unit"] for m in BENCH[kind]}
            assert {n: m["unit"] for n, m in measured.items()} == declared


def test_no_cell_fails_and_traced_replays_match(smoke):
    # A traced run whose digest differs from the untraced one is a
    # failed run, so error_rate == 0 covers the traced replay too.
    _, _, results, trace = smoke
    for name, workload in results["workloads"].items():
        assert workload["error_rate"] == 0, workload["failures"]
        assert workload["inputs"], name
        layers = trace["workloads"][name]
        assert abs(layers["trace.attributed"]["value"] - 1.0) < 0.02, name


@dataclasses.dataclass
class FakeResult:
    design: str = "tdram"
    runtime_ps: int = 1000
    sim_events: int = 10
    miss_ratio: float = 0.5
    demands: int = 8


TASK = SimpleNamespace(design="tdram", workload=SimpleNamespace(name="lu.C"),
                       seed=7, config=SimpleNamespace(cores=8),
                       demands_per_core=600)


def fake_campaign(outcomes):
    """run_campaign stand-in: each call yields the next result, or a
    failure for a string."""
    queue = iter(outcomes)

    def run_campaign(tasks, **kwargs):
        outcome = next(queue)
        if isinstance(outcome, str):
            return SimpleNamespace(failures={"task": outcome}, results=[])
        return SimpleNamespace(failures={}, results=[outcome])

    return run_campaign


def test_each_failed_run_counts_once_and_rounds_stay_aligned():
    same, other = FakeResult(), FakeResult(runtime_ps=999)
    clock = PhaseClock()
    ledger = Ledger(fake_campaign([same, other, "raised", same]),
                    {"tdram/lu.C@7": {"digest": digest(same)}})
    for r in range(4):
        ledger.timed(TASK, r, clock)
    assert ledger.attempted == 4
    assert len(ledger.failures) == 2  # round 1: other digest; round 2: raised
    assert sorted(ledger.timings["tdram/lu.C@7"]) == [0, 3]

    ledger = Ledger(fake_campaign([same]),
                    {"tdram/lu.C@7": {"digest": digest(other)}})
    ledger.timed(TASK, 0, clock)
    assert ledger.attempted == 1
    assert ledger.failures == ["tdram/lu.C@7 (round 0): digest differs "
                               "from golden.json"]


def test_compare_of_a_run_with_itself_passes(smoke):
    _, out, _, _ = smoke
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--compare", str(out),
         str(out)], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout.replace("no worse", "")


def test_run_entry_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "memory_only", "--trace", "0", *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # one check run and one timed round of the first cell
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for metric in line["metrics"].values():
        assert metric["value"] > 0


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "write_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
