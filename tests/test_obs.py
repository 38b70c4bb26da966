"""Tests for the observability layer (repro.obs).

Covers the Chrome trace-event export (schema validity, span
nesting/containment and lane-exclusivity invariants), the epoch
series reconciling exactly with the run's final aggregates, the
zero-perturbation guarantee (observability on does not change any
simulated quantity), the kernel profiler, and the CLI/campaign
plumbing that writes trace artifacts.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiments.campaign import (
    run_campaign,
    tasks_for,
    trace_artifact_path,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.runner import run_experiment
from repro.obs import ObsConfig
from repro.obs.epochs import COLUMNS, DELTA_COLUMNS, LEVEL_COLUMNS
from repro.obs.profiler import KernelProfiler, handler_name, render_profile
from repro.obs.trace import PID_REQUESTS, CHILD_SPANS

DEMANDS = 150
SEED = 11


def _small(obs: ObsConfig) -> SystemConfig:
    return SystemConfig.small().with_(obs=obs)


def _run(design="tdram", workload="synthetic", obs=None, trace_out=None,
         demands=DEMANDS):
    config = _small(obs) if obs is not None else SystemConfig.small()
    return run_experiment(design, workload, config=config,
                          demands_per_core=demands, seed=SEED,
                          trace_out=trace_out)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced+epoch+profiled run shared by the assertion tests."""
    path = tmp_path_factory.mktemp("obs") / "trace.json"
    obs = ObsConfig(trace=True, epoch_us=2.0, profile=True)
    result = _run(obs=obs, trace_out=str(path))
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return result, payload


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------
def test_obs_config_defaults_off():
    config = ObsConfig()
    assert not config.any_enabled
    assert SystemConfig.small().obs == config


def test_obs_config_validation():
    with pytest.raises(ConfigError):
        ObsConfig(epoch_us=-1.0)
    with pytest.raises(ConfigError):
        ObsConfig(trace_limit=0)


def test_disabled_obs_attaches_nothing():
    from repro.cache import DESIGNS
    from repro.memory.main_memory import MainMemory
    from repro.sim.kernel import Simulator

    sim = Simulator()
    config = SystemConfig.small()
    mm = MainMemory(sim, config.mm_timing, config.mm_geometry())
    sink = DESIGNS["tdram"](sim, config, mm)
    assert sink.obs is None
    assert sim.profiler is None
    assert all(not ch.observers for ch in sink.channels)


# ---------------------------------------------------------------------------
# Chrome trace schema
# ---------------------------------------------------------------------------
def test_trace_is_valid_chrome_json(traced):
    _result, payload = traced
    assert isinstance(payload["traceEvents"], list)
    assert payload["traceEvents"], "trace must not be empty"
    for event in payload["traceEvents"]:
        assert event["ph"] in ("X", "M", "C")
        assert isinstance(event["pid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], float)
            assert event["dur"] >= 0.0
            assert isinstance(event["tid"], int)
        elif event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
    other = payload["otherData"]
    assert other["design"] == "tdram"
    assert other["requests"] > 0


def test_trace_metadata_names_every_track(traced):
    _result, payload = traced
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    processes = {e["pid"] for e in meta if e["name"] == "process_name"}
    pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert pids <= processes, "every span's pid must be named"


def test_trace_spans_sorted_by_timestamp(traced):
    _result, payload = traced
    stamps = [e["ts"] for e in payload["traceEvents"] if e["ph"] != "M"]
    assert stamps == sorted(stamps)


# ---------------------------------------------------------------------------
# Span nesting / lane invariants
# ---------------------------------------------------------------------------
def _request_lanes(payload):
    """Spans on the request process, grouped per lane (tid)."""
    lanes = {}
    for event in payload["traceEvents"]:
        if event["ph"] == "X" and event["pid"] == PID_REQUESTS:
            lanes.setdefault(event["tid"], []).append(event)
    return lanes


def test_request_lanes_never_overlap(traced):
    """Parent request spans within one lane must be disjoint."""
    _result, payload = traced
    for lane in _request_lanes(payload).values():
        parents = [e for e in lane if e["name"] not in CHILD_SPANS]
        parents.sort(key=lambda e: e["ts"])
        for before, after in zip(parents, parents[1:]):
            assert before["ts"] + before["dur"] <= after["ts"] + 1e-9


def test_child_spans_contained_in_parent(traced):
    """Each child span lies inside its lane's enclosing request span."""
    _result, payload = traced
    seen_children = set()
    for lane in _request_lanes(payload).values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        parent = None
        for event in lane:
            if event["name"] not in CHILD_SPANS:
                parent = event
                continue
            assert parent is not None
            assert event["ts"] >= parent["ts"] - 1e-9
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-9)
            seen_children.add(event["name"])
    # The synthetic mix produces hits and misses, so both the queue
    # child and the miss path's mm_fetch child must appear.
    assert "queue" in seen_children
    assert "mm_fetch" in seen_children


def test_parent_spans_carry_outcome_args(traced):
    _result, payload = traced
    outcomes = set()
    for lane in _request_lanes(payload).values():
        for event in lane:
            if event["name"] in CHILD_SPANS:
                continue
            args = event["args"]
            assert args["block"].startswith("0x")
            outcomes.add(args["outcome"])
    assert len(outcomes) > 1, "expected a mix of hit/miss outcomes"


def test_trace_limit_bounds_memory():
    obs = ObsConfig(trace=True, trace_limit=16)
    result = _run(obs=obs)
    assert result.demands > 16  # limit really was exceeded


# ---------------------------------------------------------------------------
# Epoch series reconciliation
# ---------------------------------------------------------------------------
def test_epoch_series_schema(traced):
    result, _payload = traced
    assert set(result.epochs) == set(COLUMNS)
    rows = len(result.epochs["t_us"])
    assert rows >= 1
    for name in DELTA_COLUMNS + LEVEL_COLUMNS:
        assert len(result.epochs[name]) == rows


def test_epoch_totals_reconcile_with_final_counters(traced):
    """Delta-column sums equal the run's final aggregate metrics."""
    result, _payload = traced
    epochs = result.epochs
    assert sum(epochs["demands"]) == result.demands
    misses, demands = sum(epochs["misses"]), sum(epochs["demands"])
    assert misses / demands == pytest.approx(result.miss_ratio)
    assert sum(epochs["useful_bytes"]) == result.useful_bytes
    assert sum(epochs["total_bytes"]) == result.total_bytes
    # RunResult.writebacks counts the whole run including warm-up; the
    # epoch series covers only the measured region, so it bounds it.
    assert 0 < sum(epochs["writebacks"]) <= result.writebacks


def test_epoch_timestamps_monotonic(traced):
    result, _payload = traced
    stamps = result.epochs["t_us"]
    assert stamps == sorted(stamps)


def test_epochs_off_by_default():
    result = _run()
    assert result.epochs == {}
    assert result.profile == {}


def test_same_seed_reproduces_epoch_series():
    """Two same-seed runs agree on every ``RunResult`` field, the epoch
    series included; the golden digests pin runs with epochs off."""
    obs = ObsConfig(epoch_us=0.5)
    first, second = _run(obs=obs), _run(obs=obs)
    assert len(first.epochs["t_us"]) >= 2
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


# ---------------------------------------------------------------------------
# Zero perturbation
# ---------------------------------------------------------------------------
def _timing_fields(result):
    skip = {"epochs", "profile"}
    return {name: value for name, value in vars(result).items()
            if name not in skip}


def test_tracing_does_not_perturb_results(tmp_path):
    """Tracing is pure observation: every simulated quantity —
    including the kernel event count — is identical with it on."""
    baseline = _run()
    observed = _run(obs=ObsConfig(trace=True),
                    trace_out=str(tmp_path / "t.json"))
    assert _timing_fields(baseline) == _timing_fields(observed)


def test_epochs_add_only_tick_events(tmp_path):
    """Epoch sampling schedules its tick callbacks (extra kernel
    events) but never changes any simulated metric."""
    baseline = _run()
    observed = _run(obs=ObsConfig(epoch_us=2.0))
    base, obs = _timing_fields(baseline), _timing_fields(observed)
    ticks = obs.pop("sim_events") - base.pop("sim_events")
    assert 0 < ticks <= len(observed.epochs["t_us"])
    assert base == obs


def test_profiling_adds_zero_kernel_events():
    """The profiler flag must not schedule anything: same dispatch
    count, same timing results, wall-time data on the side."""
    baseline = _run()
    profiled = _run(obs=ObsConfig(profile=True))
    assert profiled.sim_events == baseline.sim_events
    assert _timing_fields(profiled) == _timing_fields(baseline)
    assert profiled.profile["events"] >= profiled.sim_events


# ---------------------------------------------------------------------------
# Kernel profiler unit behaviour
# ---------------------------------------------------------------------------
def test_kernel_profiler_accumulates():
    profiler = KernelProfiler()
    profiler.record(test_kernel_profiler_accumulates, 1000)
    profiler.record(test_kernel_profiler_accumulates, 500)
    profiler.record(print, 200)
    digest = profiler.summary()
    assert digest["events"] == 3
    assert profiler.wall_ns == 1700
    top = digest["handlers"][0]
    assert top["handler"] == "test_kernel_profiler_accumulates"
    assert top["count"] == 2
    assert "events/s" in render_profile(digest)


def test_handler_name_unwraps():
    import functools

    assert handler_name(print) == "print"
    partial = functools.partial(max, 1)
    assert handler_name(partial) == "max"
    assert "lambda" in handler_name(lambda: None)


def test_profiler_attaches_to_kernel():
    from repro.sim.kernel import Simulator, ns

    sim = Simulator()
    sim.profiler = KernelProfiler()
    sim.schedule(ns(1), lambda: None)
    sim.schedule(ns(2), lambda: None)
    sim.run()
    assert sim.profiler.events == 2
    assert sim.profiler.wall_ns > 0


# ---------------------------------------------------------------------------
# CLI + campaign plumbing
# ---------------------------------------------------------------------------
def test_cli_trace_target(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = cli_main(["trace", "--workload", "synthetic", "--out", str(out),
                     "--demands", "60", "--epoch-us", "1", "--profile"])
    assert code == 0
    text = capsys.readouterr().out
    assert "trace events" in text
    assert "epoch series" in text
    assert "events/s" in text
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["traceEvents"]


def test_campaign_writes_trace_artifacts(tmp_path):
    config = SystemConfig.small().with_(obs=ObsConfig(trace=True))
    tasks = tasks_for(["tdram"], ["synthetic"], config=config,
                      demands_per_core=60, seeds=[3],
                      trace_dir=str(tmp_path))
    outcome = run_campaign(tasks, jobs=1, cache=None)
    assert outcome.ok
    artifact = trace_artifact_path(tmp_path, tasks[0].key)
    assert artifact.exists()
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["otherData"]["design"] == "tdram"


def test_obs_config_participates_in_cache_key():
    base = tasks_for(["tdram"], ["synthetic"],
                     config=SystemConfig.small())[0]
    traced = dataclasses.replace(
        base, config=SystemConfig.small().with_(obs=ObsConfig(trace=True)))
    assert base.key != traced.key
    # ...but the trace destination alone is not an outcome ingredient.
    moved = dataclasses.replace(base, trace_dir="/elsewhere")
    assert base.key == moved.key
