"""One workload of the end-to-end benchmark, measured in this process.

A cell is one design on one workload spec, run through the public
serial campaign path (``run_campaign([task], jobs=1, cache=None,
strict=False)``) on ``SystemConfig.small()``. An input is a cell with
one stream seed. The process

1. runs one untimed warm-up cell at a small quantum,
2. runs the check round: every cell on the ``--seed`` stream, once,
3. runs R timed rounds: every cell on the stream of ``TIMED_SEED``. R is
   ``--rounds``, or the number of rounds that take ``--seconds`` on the
   reference host (``WORKLOADS``), so two runs and two commits always
   time the same work,
4. with ``--trace 1``, replays the check round under the layer tracer
   (:mod:`benchmarks.e2e.layers`).

Before the check round and before every timed round it times
``import repro.experiments.campaign`` in fresh interpreters, so the
import samples are spread over the run.

A cell's host time is the fastest of its R rounds: the shared host slows
everything down in bursts of a few seconds, and the fastest round is the
one such a burst missed. Every run of an input must give the same
digest, equal to ``golden.json`` when that holds the input. The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` (cell runs), and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). ``--report PATH``
also writes everything measured, per-round samples and digests included.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.layers import LAYERS, Tracer, write_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

#: Work quantum of a measured cell, per simulated core: the campaign's
#: and the figures' default, so the benchmark times the runs users make.
DEMANDS_PER_CORE = 600
#: Stream seed of the timed rounds: the campaign's default seed.
TIMED_SEED = 7
#: Quantum of the untimed warm-up cell (imports, allocator, caches).
WARMUP_DEMANDS = 200
#: Fresh interpreters timed for ``setup_s``, about; they are spread
#: evenly over the starts of the check round and the timed rounds.
IMPORT_SAMPLES = 8
#: Fewest timed rounds a ``--seconds`` run makes.
MIN_ROUNDS = 3

#: workload -> (designs, workload specs, seconds one timed round takes
#: on the reference host: 2 cores, Python 3.11). Cells run design-major.
WORKLOADS: Dict[str, tuple] = {
    "hit_resident": (("tdram", "cascade_lake", "alloy"),
                     ("lu.C", "cg.C", "bfs.22"), 2.35),
    "miss_streaming": (("tdram", "cascade_lake", "alloy"),
                       ("ft.D", "is.D", "pr.25"), 4.3),
    "memory_only": (("no_cache",), ("ft.D", "lu.C"), 2.1),
    "write_mix": (("tdram", "cascade_lake"), ("write_storm",), 2.0),
}

#: (seconds, build, drive, harvest) of one cell run
Timing = Tuple[float, float, float, float]


def import_repro():
    """Import the checkout's own ``src/repro``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no simulator source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def import_seconds(samples: int) -> List[float]:
    """Time ``import repro.experiments.campaign`` in fresh interpreters."""
    code = ("import time; start = time.perf_counter(); "
            "import repro.experiments.campaign; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def digest(result) -> str:
    """SHA-256 over the canonical JSON of every ``RunResult`` field."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def invariant_errors(result) -> List[str]:
    """Properties every finished run has, whatever the seed."""
    errors = []
    if result.runtime_ps <= 0:
        errors.append(f"runtime_ps={result.runtime_ps}")
    if result.sim_events <= 0:
        errors.append(f"sim_events={result.sim_events}")
    if not 0.0 <= result.miss_ratio <= 1.0:
        errors.append(f"miss_ratio={result.miss_ratio}")
    if result.design != "no_cache" and result.demands <= 0:
        errors.append(f"demands={result.demands}")
    return errors


def input_key(task) -> str:
    """``design/spec@seed``: the name of one input in reports and golden."""
    return f"{task.design}/{task.workload.name}@{task.seed}"


def demands_of(task) -> int:
    """The work quantum of a cell. ``RunResult.demands`` is not used,
    because ``no_cache`` reports 0 there."""
    return task.config.cores * task.demands_per_core


class PhaseClock:
    """Timestamps ``Simulator.run`` from outside, splitting a cell into
    build (task start to the first ``run``), drive and harvest."""

    def __init__(self) -> None:
        self.first: Optional[float] = None
        self.last: Optional[float] = None

    def simulator_class(self, base):
        clock = self

        class ClockedSimulator(base):
            def run(self, until=None, max_events=None):
                if clock.first is None:
                    clock.first = time.perf_counter()
                try:
                    return super().run(until=until, max_events=max_events)
                finally:
                    clock.last = time.perf_counter()

        return ClockedSimulator


def run_task(task, run_campaign):
    """One cell through the public serial campaign path: (result, error)."""
    outcome = run_campaign([task], jobs=1, cache=None, strict=False,
                           retries=0)
    if outcome.failures:
        return None, "; ".join(outcome.failures.values())
    return outcome.results[0], None


class Ledger:
    """Every cell run of the workload: its digest and timing.

    A run fails when it raises or lands in ``outcome.failures``, breaks
    an invariant, gives another digest than the first run of the same
    input, or gives another digest than ``golden.json`` holds for it.
    Each run counts once in ``attempted`` and at most once in
    ``failures``.
    """

    def __init__(self, run_campaign, golden: Dict[str, dict]) -> None:
        self.run_campaign = run_campaign
        self.golden = golden
        self.attempted = 0
        self.failures: List[str] = []
        #: input -> digest of its first successful run, and its results
        #: in readable form
        self.inputs: Dict[str, dict] = {}
        #: input -> {round: Timing} of its timed rounds that succeeded
        self.timings: Dict[str, Dict[int, Timing]] = {}
        self.demands: Dict[str, int] = {}

    def run(self, task, run_id: str, clock: PhaseClock, tracer=None):
        """Run ``task`` once, as a traced cell when ``tracer`` is given:
        (result, Timing), or None when it failed."""
        key = input_key(task)
        gc.collect()  # garbage of the previous cell must not land in this one
        clock.first = clock.last = None
        start = time.perf_counter()
        if tracer is None:
            result, error = run_task(task, self.run_campaign)
        else:
            result, error = tracer.cell(
                key, lambda: run_task(task, self.run_campaign))
        end = time.perf_counter()
        self.attempted += 1
        if error is None:
            error = "; ".join(invariant_errors(result)) or None
        if error is None:
            value = digest(result)
            first = self.inputs.setdefault(key, {
                "digest": value, "runtime_ps": result.runtime_ps,
                "miss_ratio": result.miss_ratio,
                "sim_events": result.sim_events})["digest"]
            if value != first:
                error = "digest differs from the first run of this input"
            elif value != self.golden.get(key, {}).get("digest", value):
                error = "digest differs from golden.json"
        if error is not None:
            self.failures.append(f"{key} ({run_id}): {error}")
            return None
        if clock.first is None:  # traced: the tracer owns Simulator
            return result, (end - start, 0.0, 0.0, 0.0)
        return result, (end - start, clock.first - start,
                        clock.last - clock.first, end - clock.last)

    def timed(self, task, round_index: int, clock: PhaseClock) -> None:
        key = input_key(task)
        self.demands[key] = demands_of(task)
        rounds = self.timings.setdefault(key, {})
        outcome = self.run(task, f"round {round_index}", clock)
        if outcome is not None:
            rounds[round_index] = outcome[1]

    def total(self, field: int, reduce,
              skip: Optional[int] = None) -> float:
        """Σ over the cells of ``reduce`` (min or median) of one Timing
        field over the timed rounds, leaving out round ``skip``."""
        return sum(reduce([t[field] for r, t in rounds.items() if r != skip]
                          or [0.0])
                   for rounds in self.timings.values())


def load_golden(demands_per_core: int) -> Dict[str, dict]:
    """Golden inputs for this quantum ({} when none exist)."""
    if not GOLDEN.is_file():
        return {}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden.get("demands_per_core") != demands_per_core:
        return {}
    return golden["inputs"]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ledger: Ledger, imports: List[List[float]],
               peak_rss_mb: float,
               skip: Optional[int] = None) -> Dict[str, tuple]:
    """Every end-to-end metric as name -> (value, unit). ``imports[0]``
    are the samples taken before the check round, ``imports[r + 1]``
    those before timed round r; ``skip`` leaves out one timed round.

    A cell's run time is its fastest round. Set-up times are medians:
    the import samples', and each cell's build time over the rounds.
    """
    seconds = ledger.total(0, min, skip)
    demands = sum(ledger.demands.values())
    kept = [t for r, samples in enumerate(imports)
            if skip is None or r != skip + 1 for t in samples]
    return {
        "demands_per_s": (demands / seconds if seconds > 0 else 0.0,
                          "demands/s"),
        "setup_s": (median(kept) + ledger.total(1, median, skip), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def leave_one_out(ledger: Ledger, imports: List[List[float]],
                  rounds: int) -> Dict[str, List[float]]:
    """The time metrics recomputed R times, each time without one timed
    round: how much the value rests on a single round, for compare."""
    samples: Dict[str, List[float]] = {"demands_per_s": [], "setup_s": []}
    if rounds < 2:
        return samples
    for skip in range(rounds):
        metrics = end_to_end(ledger, imports, 0.0, skip)
        for name, values in samples.items():
            values.append(metrics[name][0])
    return samples


def per_layer(ledger: Ledger, check: list, tracer, traced_wall: float,
              imports: List[float]) -> Dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit). The counts and
    ``model.*`` describe the check round, the phases the timed rounds."""
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        self_s = tracer.self_ns[layer] / 1e9
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (tracer.spans[layer], "count")
        metrics[f"{layer}.share"] = (
            self_s / traced_wall if traced_wall > 0 else 0.0, "fraction")

    calls = tracer.calls
    results = [result for _, result, _ in check]
    demands = sum(demands_of(task) for task, _, _ in check)
    events = sum(r.sim_events for r in results)
    accepts = calls.get("cache.can_accept", 0)
    rejects = calls.get("cache.can_accept.false", 0)
    earliest = (calls.get("dram.earliest_issue", 0)
                + calls.get("dram.earliest_issue_open", 0))
    issues = (calls.get("dram.issue_access", 0)
              + calls.get("dram.issue_access_open", 0)
              + calls.get("dram.issue_probe", 0))
    counts = {
        "sim.events": events,
        "frontend.submits": calls.get("cache.submit", 0),
        "frontend.rejects": rejects,
        "tagstore.probes": calls.get("tagstore.probe", 0),
        "tagstore.fills": calls.get("tagstore.fill", 0),
        "tagstore.installs": calls.get("tagstore.install", 0),
        "dram.earliest_issue_calls": earliest,
        "dram.row_hit_checks": calls.get("dram.is_row_hit", 0),
        "dram.issues": issues,
        "memory.reads": calls.get("memory.read", 0),
        "memory.writes": calls.get("memory.write", 0),
        "core.probes": sum(r.probes for r in results),
        "core.probe_bank_conflicts": sum(r.probe_bank_conflicts
                                         for r in results),
        "core.flush_stalls": sum(r.flush_stalls for r in results),
        "energy.records": calls.get("energy.record", 0),
        "stats.counter_adds": calls.get("stats.add", 0),
    }
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["sim.events_per_demand"] = (
        events / demands if demands else 0.0, "events/demand")
    metrics["frontend.accept_ratio"] = (
        (accepts - rejects) / accepts if accepts else 0.0, "fraction")
    metrics["dram.issue_ratio"] = (
        issues / earliest if earliest else 0.0, "fraction")

    metrics["experiments.import_s"] = (median(imports), "s")
    for field, phase, reduce in ((1, "build", median), (2, "drive", min),
                                 (3, "harvest", min)):
        metrics[f"experiments.{phase}_s"] = (ledger.total(field, reduce),
                                             "s")

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    metrics["model.runtime_us"] = (
        sum(r.runtime_ps for r in results) / 1e6, "us")
    for name in ("miss_ratio", "read_latency_ns", "queue_delay_ns",
                 "tag_check_ns", "mm_read_latency_ns", "bloat_factor"):
        unit = "ns" if name.endswith("_ns") else "ratio"
        metrics[f"model.{name}"] = (
            mean([getattr(r, name) for r in results]), unit)
    metrics["model.energy_uj"] = (
        sum(r.energy_pj for r in results) / 1e6, "uJ")

    untraced = sum(timing[0] for _, _, timing in check)
    attributed = sum(tracer.self_ns.values()) / 1e9
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead"] = (
        traced_wall / untraced if untraced > 0 else 0.0, "ratio")
    metrics["trace.attributed"] = (
        attributed / traced_wall if traced_wall > 0 else 0.0, "fraction")
    return metrics


def traced_replay(ledger: Ledger, tasks, clock: PhaseClock,
                  spans_path: Optional[str]):
    """Run the check round again under the tracer; each run must give its
    untraced digest. Returns (tracer, traced wall seconds)."""
    raw = [] if spans_path else None
    wall = 0.0
    with Tracer() as tracer:
        for index, task in enumerate(tasks):
            tracer.raw = raw if index == 0 else None
            outcome = ledger.run(task, "traced", clock, tracer)
            if outcome is not None:
                wall += outcome[1][0]
    if spans_path:
        write_chrome_trace(spans_path, raw, input_key(tasks[0]))
    return tracer, wall


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Measure one workload of the end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="stream seed of the check round")
    parser.add_argument("--seconds", type=float,
                        help="size the timed rounds to take this long on "
                        "the reference host (ignored with --rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many timed rounds")
    parser.add_argument("--demands", type=int, default=DEMANDS_PER_CORE,
                        help="work quantum per core of a measured cell")
    parser.add_argument("--first-cell", action="store_true",
                        help="run only the workload's first cell")
    parser.add_argument("--no-golden", action="store_true",
                        help="skip the golden-digest check")
    parser.add_argument("--report", help="write everything measured here")
    parser.add_argument("--spans",
                        help="dump the first traced cell's raw spans here")
    args = parser.parse_args(argv)
    if args.demands <= 0 or args.rounds < 0 or (args.seconds or 0) < 0:
        parser.error("--demands must be positive; --rounds and --seconds "
                     "must not be negative")
    if not args.rounds and args.seconds is None:
        parser.error("give --seconds or --rounds")
    if args.spans and not args.trace:
        parser.error("--spans needs --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()

    from repro.config.system import SystemConfig
    from repro.experiments import runner
    from repro.experiments.campaign import run_campaign, tasks_for
    from repro.workloads.suite import any_workload

    designs, names, round_s = WORKLOADS[args.workload]
    rounds = args.rounds or max(MIN_ROUNDS, round(args.seconds / round_s))
    per_start = max(1, IMPORT_SAMPLES // (rounds + 1))
    config = SystemConfig.small()
    specs = [any_workload(name) for name in names]

    def tasks(seed: int):
        cells = tasks_for(designs, specs, config=config,
                          demands_per_core=args.demands, seeds=(seed,))
        return cells[:1] if args.first_cell else cells

    check_tasks = tasks(args.seed)
    timed_tasks = tasks(TIMED_SEED)
    golden = {} if args.no_golden else load_golden(args.demands)
    ledger = Ledger(run_campaign, golden)

    warmup = dataclasses.replace(
        check_tasks[0], demands_per_core=min(WARMUP_DEMANDS, args.demands))
    run_task(warmup, run_campaign)

    imports: List[List[float]] = []
    check = []
    clock = PhaseClock()
    original = runner.Simulator
    runner.Simulator = clock.simulator_class(original)
    try:
        imports.append(import_seconds(per_start))
        for task in check_tasks:
            outcome = ledger.run(task, "check", clock)
            if outcome is not None:
                check.append((task, *outcome))
        for r in range(rounds):
            imports.append(import_seconds(per_start))
            for task in timed_tasks:
                ledger.timed(task, r, clock)
    finally:
        runner.Simulator = original
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = traced_wall = None
    if args.trace:
        tracer, traced_wall = traced_replay(ledger, check_tasks, clock,
                                            args.spans)

    failed = len(ledger.failures)
    for failure in ledger.failures:
        print(f"FAILED {args.workload} {failure}", file=sys.stderr)
    e2e = end_to_end(ledger, imports, peak_rss_mb)
    layer = (per_layer(ledger, check, tracer, traced_wall,
                       sum(imports, []))
             if tracer is not None else {})
    shown = layer if args.trace else e2e
    for name, (value, unit) in shown.items():
        print(f"{args.workload:15s} {name:30s} {value:16.6g} {unit}")

    if args.report:
        seconds = {key: [rounds_of.get(r, (None,))[0] for r in range(rounds)]
                   for key, rounds_of in ledger.timings.items()}
        report = {
            "workload": args.workload, "seed": args.seed,
            "timed_seed": TIMED_SEED, "demands_per_core": args.demands,
            "rounds": rounds, "attempted": ledger.attempted,
            "failed": failed, "failures": ledger.failures,
            "imports": imports,
            "end_to_end": {n: {"value": v, "unit": u}
                           for n, (v, u) in e2e.items()},
            "samples": leave_one_out(ledger, imports, rounds),
            "per_layer": {n: {"value": v, "unit": u}
                          for n, (v, u) in layer.items()},
            "inputs": {key: dict(value, seconds=seconds.get(key, []))
                       for key, value in ledger.inputs.items()},
        }
        Path(args.report).write_text(json.dumps(report, indent=1),
                                     encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))
    return 0
