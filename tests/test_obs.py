"""Tests for the observability layer (repro.obs).

Covers the Chrome trace-event export (schema validity, span
nesting/containment and lane-exclusivity invariants), the epoch
series reconciling exactly with the run's final aggregates, the
zero-perturbation guarantee (observability on does not change any
simulated quantity), the kernel profiler on every design, the
no_cache rule, and the CLI plumbing that writes the trace.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.experiments.runner as runner_mod
import repro.obs.trace as trace_mod
from repro.cache import DESIGNS
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiments.campaign import tasks_for
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
    assert not (config.trace or config.epoch_us or config.profile)
    assert SystemConfig.small().obs == config


def test_obs_config_validation():
    with pytest.raises(ConfigError):
        ObsConfig(epoch_us=-1.0)


def test_disabled_obs_attaches_nothing(monkeypatch):
    """With obs off, no design's run assigns ``sim.profiler``, and no
    cache controller holds a tracer or a channel observer."""
    profilers = []

    class Recording(runner_mod.Simulator):
        def __setattr__(self, name, value):
            if name == "profiler":
                profilers.append(value)
            super().__setattr__(name, value)

    original = DESIGNS.copy()
    sinks = []

    def keep(cls):
        def build(*args):
            sinks.append(cls(*args))
            return sinks[-1]
        return build

    monkeypatch.setattr(runner_mod, "Simulator", Recording)
    for name, cls in original.items():
        monkeypatch.setitem(DESIGNS, name, keep(cls))
    for design in sorted(original):
        _run(design=design, demands=20)
    assert len(sinks) == len(original)
    # The kernel's own __init__ sets profiler = None; nothing else may.
    assert profilers == [None] * len(original)
    for sink in sinks:
        assert getattr(sink, "trace", None) is None
        assert all(not ch.observers for ch in getattr(sink, "channels", []))


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


def _trace_counts(path):
    """(kept request records, kept resource events, dropped) of a
    written trace."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    other = payload["otherData"]
    resources = sum(1 for e in payload["traceEvents"]
                    if e["ph"] != "M" and e["pid"] != PID_REQUESTS)
    kept = other["requests"] + other["unfinished"]
    return kept, resources, other["dropped"]


def test_trace_limit_bounds_memory(tmp_path, monkeypatch):
    """With a small limit the trace keeps at most that many request
    records and resource events, and counts every one it drops."""
    obs = ObsConfig(trace=True)
    _run(obs=obs, trace_out=str(tmp_path / "full.json"), demands=60)
    requests, resources, dropped = _trace_counts(tmp_path / "full.json")
    assert dropped == 0
    limit = 16
    assert requests > limit and resources > limit
    monkeypatch.setattr(trace_mod, "TRACE_LIMIT", limit)
    _run(obs=obs, trace_out=str(tmp_path / "cut.json"), demands=60)
    assert _trace_counts(tmp_path / "cut.json") == (
        limit, limit, (requests - limit) + (resources - limit))


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


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_profile_counts_every_kernel_event(design):
    """The profiler attaches to the run, not to a cache controller, so
    it sees every dispatch of every design, no_cache included."""
    result = _run(design=design, workload="lu.C",
                  obs=ObsConfig(profile=True), demands=40)
    assert result.profile["events"] == result.sim_events > 0


@pytest.mark.parametrize("obs", [ObsConfig(trace=True),
                                 ObsConfig(epoch_us=1.0)],
                         ids=["trace", "epochs"])
def test_no_cache_rejects_trace_and_epochs(obs, monkeypatch):
    """no_cache has no controller state to trace or sample: asking for
    either fails before a simulator is built, naming both fields."""
    def no_simulator():
        raise AssertionError("simulated before rejecting the config")

    monkeypatch.setattr(runner_mod, "Simulator", no_simulator)
    with pytest.raises(ConfigError, match=r"'no_cache'.*ObsConfig\.trace"
                                          r".*ObsConfig\.epoch_us"):
        _run(design="no_cache", obs=obs)


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
# CLI plumbing and the cache key
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


def test_obs_config_participates_in_cache_key():
    base = tasks_for(["tdram"], ["synthetic"],
                     config=SystemConfig.small())[0]
    traced = dataclasses.replace(
        base, config=SystemConfig.small().with_(obs=ObsConfig(trace=True)))
    assert base.key != traced.key
