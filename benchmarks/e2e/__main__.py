"""Run the end-to-end benchmark on every workload, or compare two runs.

    python -m benchmarks.e2e --seed 7 [--out results.json]
    python -m benchmarks.e2e --compare A.json B.json
    python -m benchmarks.e2e --seed 7 --update-golden

Each workload declared in ``BENCHMARK.json`` runs in a fresh
``benchmarks/e2e/run.py`` subprocess with ``--trace 1``, one after
another (a closed loop: one cell at a time, no threads, no pool), for
``run_seconds`` of timed rounds. The exit status is non-zero when any
cell run failed (``error_rate > 0``) or, with ``--compare``, when a
metric got worse or a digest or deterministic count changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e.worker import DEMANDS_PER_CORE, GOLDEN, ROOT

BENCHMARK = ROOT / "BENCHMARK.json"
RUN = Path(__file__).resolve().with_name("run.py")


def host_facts() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load_1min_before": os.getloadavg()[0]}


def run_workload(name: str, args, seconds: int, report: Path,
                 spans: str) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", name,
           "--seed", str(args.seed), "--trace", "1",
           "--seconds", str(seconds), "--rounds", str(args.rounds),
           "--demands", str(args.demands), "--report", str(report)]
    if args.first_cell:
        cmd.append("--first-cell")
    if args.update_golden:
        cmd.append("--no-golden")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: workload {name} exited with "
                         f"{proc.returncode}")
    return json.loads(report.read_text(encoding="utf-8"))


def print_tables(reports: Dict[str, dict], bench: dict) -> None:
    print(f"{'workload':15s} {'metric':14s} {'value':>14s}  unit       "
          "better  bound")
    for name, report in reports.items():
        for spec in bench["end_to_end"]:
            metric = report["end_to_end"][spec["name"]]
            print(f"{name:15s} {spec['name']:14s} {metric['value']:14.6g}  "
                  f"{metric['unit']:10s} {spec['better']:7s} "
                  f"{spec['bound']:.0%}")
        print(f"{name:15s} {'error_rate':14s} {report['error_rate']:14.6g}  "
              f"{'fraction':10s} {'lower':7s} 0 (absolute)")
    print()
    names = list(reports)
    print(f"{'per-layer metric':28s} {'unit':13s} "
          + " ".join(f"{n:>15s}" for n in names))
    for spec in bench["per_layer"]:
        metrics = [reports[n]["per_layer"][spec["name"]] for n in names]
        print(f"{spec['name']:28s} {metrics[0]['unit']:13s} "
              + " ".join(f"{m['value']:15.6g}" for m in metrics))


def update_golden(reports: Dict[str, dict], args) -> None:
    inputs = {}
    for report in reports.values():
        for key, found in report["inputs"].items():
            inputs[key] = {field: found[field] for field in
                           ("digest", "runtime_ps", "miss_ratio",
                            "sim_events")}
    golden = {"demands_per_core": args.demands, "inputs": inputs}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


def write_results(path: Path, reports: Dict[str, dict], host: dict,
                  args) -> None:
    head = {"seed": args.seed, "demands_per_core": args.demands,
            "host": host}
    results = dict(head, workloads={
        name: {key: report[key] for key in
               ("timed_seed", "rounds", "end_to_end", "error_rate", "failures",
                "samples", "imports", "inputs")}
        for name, report in reports.items()})
    trace = dict(head, workloads={
        name: report["per_layer"] for name, report in reports.items()})
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    trace_path = path.with_name(path.stem + "_trace" + path.suffix)
    trace_path.write_text(json.dumps(trace, indent=1) + "\n",
                          encoding="utf-8")
    print(f"wrote {path} and {trace_path}")


def run_all(args) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    host = host_facts()
    reports: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for index, workload in enumerate(bench["workloads"]):
            name = workload["name"]
            spans = args.spans if index == 0 else None
            report = run_workload(name, args, bench["run_seconds"],
                                  Path(tmp, f"{name}.json"), spans)
            report["error_rate"] = report["failed"] / report["attempted"]
            reports[name] = report
    host["load_1min_after"] = os.getloadavg()[0]
    print_tables(reports, bench)
    if args.out:
        write_results(Path(args.out), reports, host, args)
    failed = [n for n, r in reports.items() if r["error_rate"] > 0]
    if failed:
        for name in failed:
            for failure in reports[name]["failures"]:
                print(f"FAILED {name} {failure}")
        print(f"FAILED: error_rate > 0 on {', '.join(failed)}")
        return 1
    if args.update_golden:
        update_golden(reports, args)
    return 0


# -- compare ------------------------------------------------------------
def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a: dict, b: dict, spec: dict) -> str:
    """improved / no worse / worse / unresolved, for B against A.

    ``a`` and ``b`` hold the metric's ``value`` and its leave-one-round-
    out ``samples``. A metric is unresolved when either side's samples
    spread wider than the bound: then one round decided the value.
    """
    if max(spread(a["samples"]), spread(b["samples"])) > spec["bound"]:
        return "unresolved"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if worse_by > spec["bound"]:
        return "worse"
    if -worse_by > spec["bound"]:
        return "improved"
    return "no worse"


def counts_of(trace: dict) -> Dict[str, object]:
    """Metrics that repeat exactly: counts and simulated results."""
    return {f"{w}:{name}": metric["value"]
            for w, metrics in trace["workloads"].items()
            for name, metric in metrics.items()
            if metric["unit"] == "count" or name.startswith("model.")}


def compare(path_a: Path, path_b: Path) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    a, b = (json.loads(p.read_text(encoding="utf-8"))
            for p in (path_a, path_b))
    bad = 0
    print(f"{'workload':15s} {'metric':14s} {'A value':>10s} "
          f"{'A median [q1, q3]':>30s} {'B value':>10s} "
          f"{'B median [q1, q3]':>30s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        sides = (a["workloads"][name], b["workloads"][name])
        for spec in bench["end_to_end"]:
            metric = [{"value": side["end_to_end"][spec["name"]]["value"],
                       "samples": side["samples"].get(spec["name"])
                       or [side["end_to_end"][spec["name"]]["value"]]}
                      for side in sides]
            result = verdict(*metric, spec)
            bad += result == "worse"
            cols = []
            for side in metric:
                q1, med, q3 = quartiles(side["samples"])
                cols.append(f"{side['value']:10.6g} "
                            f"{f'{med:.6g} [{q1:.6g}, {q3:.6g}]':>30s}")
            print(f"{name:15s} {spec['name']:14s} {cols[0]} {cols[1]}  "
                  f"{result}")
        # Inputs both runs made (the panel always, the check round when
        # the seeds agree) must give the same results.
        inputs_a, inputs_b = (side["inputs"] for side in sides)
        for key in sorted(inputs_a.keys() & inputs_b.keys()):
            if inputs_a[key]["digest"] != inputs_b[key]["digest"]:
                bad += 1
                print(f"{name:15s} {key}: digest differs")
    traces = [p.with_name(p.stem + "_trace" + p.suffix)
              for p in (path_a, path_b)]
    if (a["seed"], a["demands_per_core"]) != (b["seed"],
                                              b["demands_per_core"]):
        print("different seeds or quantum: per-layer counts not compared")
    elif all(t.is_file() for t in traces):
        ca, cb = (counts_of(json.loads(t.read_text(encoding="utf-8")))
                  for t in traces)
        for key in sorted(ca.keys() & cb.keys()):
            if ca[key] != cb[key]:
                bad += 1
                print(f"count differs: {key}: {ca[key]} -> {cb[key]}")
        print(f"{len(ca.keys() & cb.keys())} deterministic counts compared")
    print("compare: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end + per-layer benchmark (see README.md).")
    parser.add_argument("--seed", type=int, default=7,
                        help="stream seed of each workload's check round")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many timed rounds per "
                        "workload")
    parser.add_argument("--demands", type=int, default=DEMANDS_PER_CORE,
                        help="work quantum per core of a measured cell")
    parser.add_argument("--first-cell", action="store_true",
                        help="run only each workload's first cell")
    parser.add_argument("--out", help="write results JSON here, and the "
                        "per-layer metrics beside it as <stem>_trace.json")
    parser.add_argument("--spans", help="dump the first cell's raw spans "
                        "as Chrome trace_event JSON")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from this run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.rounds < 0:
        parser.error("--rounds must not be negative")
    if args.update_golden and (args.first_cell
                               or args.demands != DEMANDS_PER_CORE):
        parser.error("golden.json pins every cell at the default quantum; "
                     "drop --first-cell and --demands")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
