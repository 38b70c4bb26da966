"""Scheduler microbenchmark: raw event throughput of the sim kernel.

Exercises ``repro.sim.kernel.Simulator`` in isolation — no cache model,
no DRAM timing — so the number is the ceiling any full-system run can
reach. Scenarios, all with empty callbacks:

``stream``
    K self-rescheduling chains with a fixed short delay, staggered so
    each event opens its own instant: the steady request-path shape
    without the same-instant sharing of a real run.
``mixed_horizon``
    Delays cycled from sub-nanosecond to multi-microsecond horizons,
    so near instants and long idle gaps between pending instants are
    both on the measured path.
``cancel``
    Schedule a window of events and cancel every other one before it
    fires — the O(1) tombstone path plus dispatch-side skipping. Every
    event has its own instant and all are scheduled up front, so the
    whole window is pending as distinct instants at once: the worst
    case of the time-slot heap, and not the shape of any simulated run.

Every timed scenario is preceded by an untimed warm-up pass at a
reduced event count, so allocator warm-up and first-touch effects land
outside the measurement. The record carries ``cpu_count`` (always the
true host value) and a ``degraded`` marker like ``BENCH_campaign.json``
does — wall-clock floors from a degraded host are not comparable
datapoints.

Writes ``BENCH_kernel.json``. Run standalone (the CI perf-smoke job
does)::

    python benchmarks/bench_kernel.py
    python benchmarks/bench_kernel.py --events 500000 --out BENCH_kernel.json

or through pytest (``pytest benchmarks/bench_kernel.py -s``), which
uses a reduced event count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from repro.sim.kernel import Simulator

#: delay pattern for the mixed-horizon scenario (ps): under a
#: nanosecond, tens of nanoseconds, and multi-microsecond gaps
_HORIZONS = (700, 2_500, 60_000, 900_000, 5_000_000)

#: untimed warm-up fraction of the measured event count (min 1000)
_WARMUP_FRACTION = 0.1


def _warmup_events(events: int) -> int:
    return max(1_000, int(events * _WARMUP_FRACTION))


def _bench_stream(events: int, chains: int = 8) -> float:
    sim = Simulator()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired + chains <= events:
            sim.schedule(1_000, tick)

    for i in range(chains):
        sim.at(i * 100, tick)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    # The chains start ``chains`` events and each of the first
    # ``events - chains`` dispatches schedules one more.
    assert fired == max(events, chains), (fired, events, chains)
    return fired / wall if wall else 0.0


def _bench_mixed_horizon(events: int) -> float:
    sim = Simulator()
    fired = 0
    horizons = _HORIZONS
    nh = len(horizons)

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired < events:
            sim.schedule(horizons[fired % nh], tick)

    sim.at(0, tick)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    assert fired == events
    return fired / wall if wall else 0.0


def _bench_cancel(events: int) -> float:
    sim = Simulator()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    start = time.perf_counter()
    handles = [sim.at(1_000 + i * 10, tick) for i in range(events)]
    for handle in handles[::2]:
        sim.cancel(handle)
    sim.run()
    wall = time.perf_counter() - start
    assert fired == events - len(handles[::2])
    # schedules + cancels + dispatches all count as scheduler operations
    return (events + len(handles[::2])) / wall if wall else 0.0


def bench_kernel(events: int = 200_000,
                 out: Optional[str] = "BENCH_kernel.json") -> dict:
    """Measure scheduler-only event throughput; write ``out``."""
    warm = _warmup_events(events)
    cpu_count = os.cpu_count() or 1

    _bench_stream(warm)
    stream = _bench_stream(events)
    _bench_mixed_horizon(warm)
    mixed = _bench_mixed_horizon(events)
    _bench_cancel(warm)
    cancel = _bench_cancel(events)

    record = {
        "bench": "kernel",
        "events": events,
        "warmup_events": warm,
        "cpu_count": cpu_count,
        # Single-threaded benchmark, but wall-clock floors measured on a
        # starved host are still not comparable datapoints: mirror the
        # BENCH_campaign.json marker so downstream tooling can tell.
        "degraded": cpu_count < 2,
        "scenarios": {
            "stream": {
                "events_per_sec": round(stream),
            },
            "mixed_horizon": {
                "events_per_sec": round(mixed),
            },
            "cancel": {
                "ops_per_sec": round(cancel),
            },
        },
    }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    return record


def test_bench_kernel(tmp_path):
    """Pytest entry: tiny event count, asserts every scenario ran."""
    out = tmp_path / "BENCH_kernel.json"
    record = bench_kernel(events=5_000, out=str(out))
    print()
    print(json.dumps(record, indent=1, sort_keys=True))
    assert record["scenarios"]["stream"]["events_per_sec"] > 0
    assert record["scenarios"]["mixed_horizon"]["events_per_sec"] > 0
    assert record["scenarios"]["cancel"]["ops_per_sec"] > 0
    assert record["cpu_count"] >= 1
    assert json.loads(out.read_text()) == record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=200_000)
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument("--min-events-per-sec", type=float, default=None,
                        help="exit nonzero if the stream scenario falls "
                             "below this floor")
    args = parser.parse_args(argv)
    record = bench_kernel(events=args.events, out=args.out)
    print(json.dumps(record, indent=1, sort_keys=True))
    stream = record["scenarios"]["stream"]["events_per_sec"]
    if args.min_events_per_sec and stream < args.min_events_per_sec:
        print(f"FAIL: stream events/sec {stream} "
              f"< {args.min_events_per_sec}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
