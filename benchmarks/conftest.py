"""Shared fixtures for the benchmark harness.

Every paper table/figure has a bench target. By default the benches use
the fast representative workload subset (6 workloads spanning both miss
groups); set ``REPRO_FULL_SUITE=1`` for the complete 28-workload sweep
(slow) and ``REPRO_BENCH_DEMANDS`` to change the per-core work quantum.

Simulations are memoised in a session-scoped
:class:`~repro.experiments.figures.ExperimentContext`, so one
(design, workload) pair is simulated exactly once across all benches.
Studies that run at their own work quantum or workload subset build
their own context with the values they pass.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the
regenerated tables.
"""

from __future__ import annotations

import os

import pytest

from repro.config.system import SystemConfig
from repro.experiments.figures import ExperimentContext
from repro.workloads.suite import full_suite, representative_suite


def bench_demands() -> int:
    return int(os.environ.get("REPRO_BENCH_DEMANDS", "400"))


def bench_specs():
    if os.environ.get("REPRO_FULL_SUITE"):
        return full_suite()
    return representative_suite()


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """Session-wide simulation cache across all figure benches."""
    return ExperimentContext(
        config=SystemConfig.small(),
        specs=bench_specs(),
        demands_per_core=bench_demands(),
        seed=7,
    )


@pytest.fixture(scope="session")
def bench_config() -> SystemConfig:
    return SystemConfig.small()


def run_and_render(benchmark, figure_fn, *args, **kwargs):
    """Benchmark one figure-regeneration call and print its table."""
    result = benchmark.pedantic(
        lambda: figure_fn(*args, **kwargs), rounds=1, iterations=1,
    )
    print()
    print(result.render())
    return result
