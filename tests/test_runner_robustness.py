"""Robustness paths: watchdogs, finite streams, fill-eviction races,
worker-crash recovery, and SIGKILL-resume of cached campaigns."""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cache import DESIGNS
from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.metrics import CacheMetrics
from repro.cache.request import Op
from repro.config.system import MIB, SystemConfig
from repro.errors import SimulationError
from repro.experiments.runner import run_experiment
from repro.frontend.core_model import Core, Progress
from repro.sim.kernel import Simulator, ns
from tests.conftest import first_attempt

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=2)


class _BlackHole:
    """Accepts reads, never answers them: a deadlocked memory system."""

    design_name = "black_hole"

    def __init__(self, sim, config, main_memory):
        self.sim = sim
        self.metrics = CacheMetrics()
        self.meter = None

    def can_accept(self, op, block):
        return True

    def submit(self, request):
        request.arrive_time = self.sim.now  # ... and silence forever


class TestWatchdog:
    def test_no_forward_progress_raises(self):
        DESIGNS["black_hole"] = _BlackHole
        try:
            with pytest.raises(SimulationError, match="no forward progress"):
                run_experiment("black_hole", "cg.C", FAST,
                               demands_per_core=50, seed=1)
        finally:
            del DESIGNS["black_hole"]


class TestFiniteStreams:
    def test_core_finishes_gracefully_when_stream_runs_dry(self):
        sim = Simulator()

        class Sink:
            def can_accept(self, op, block):
                return True

            def submit(self, request):
                request.arrive_time = sim.now
                if request.op is Op.READ:
                    sim.schedule(ns(10), lambda: request.complete(sim.now))

        progress = Progress(total_demands=100, warmup_fraction=0.0)
        short = iter([(0, Op.READ, i, 0) for i in range(5)])
        core = Core(sim, 0, short, Sink(), demands=100,
                    max_outstanding_reads=4, progress=progress)
        core.start()
        sim.run()
        assert core.finished
        assert core.issued == 5


class TestFillEvictionRace:
    def test_cl_fill_displacing_raced_dirty_write(self, make_system):
        """A fill returning after a conflicting dirty write installed
        must write the victim back, never silently drop it (the base
        `_handle_fill_eviction` path). Forced white-box: the natural
        window is a few nanoseconds wide."""
        system = make_system(CascadeLakeCache)
        conflicting = 5 + system.cache.tags.num_sets
        system.write(conflicting)
        system.run(1_000)
        assert system.cache.tags.is_dirty(conflicting)
        # A fetch for block 5 (same frame) now returns.
        system.cache._mshrs[5] = []
        system.cache._on_fetch_return(5, system.sim.now)
        system.run(50_000)
        assert system.cache.tags.contains(5)
        ledger = system.cache.metrics.ledger.by_category()
        # The displaced dirty line crossed the DQ bus and reached DDR5.
        assert ledger.get("victim_readout", 0) >= 64
        assert system.main_memory.writes_issued >= 1

    def test_tdram_fill_eviction_race_uses_flush_buffer(self, make_system):
        from repro.cache.tdram import TdramCache

        system = make_system(TdramCache)
        conflicting = 5 + system.cache.tags.num_sets
        system.write(conflicting)
        system.run(1_000)
        system.cache._mshrs[5] = []
        system.cache._on_fetch_return(5, system.sim.now)
        system.run(100)
        # The victim moved in-DRAM, not over the DQ bus.
        assert system.cache.metrics.events["victim_to_flush_buffer"] >= 1
        assert "victim_readout" not in \
            system.cache.metrics.ledger.by_category()


def die_first_time(task):
    """Runner that kills its worker process with ``os._exit(137)`` (the
    SIGKILL/OOM signature) on each task's first attempt; later attempts
    simulate normally. Only ever run inside a pool worker."""
    if first_attempt(task):
        os._exit(137)
    return run_experiment(task.design, task.workload, config=task.config,
                          demands_per_core=task.demands_per_core,
                          seed=task.seed)


class TestWorkerCrashRecovery:
    def test_worker_killed_on_first_attempt_succeeds_on_second(
            self, pools, markers, two_cpus):
        """Satellite: every task's worker dies on its first attempt
        under a real pool; the broken pool is replaced, the retries run
        clean, and the campaign completes with correct results."""
        from repro.experiments.campaign import run_campaign, tasks_for

        tasks = tasks_for(["tdram", "no_cache"], ["cg.C"], config=FAST,
                          demands_per_core=60, seeds=[13])
        clean = run_campaign(tasks, jobs=2)
        pools.clear()
        outcome = run_campaign(tasks, jobs=2, runner=die_first_time,
                               retries=3)
        assert outcome.ok and outcome.simulated == len(tasks)
        assert outcome.retried >= 1
        assert len(pools) >= 2  # the broken pool was replaced
        for left, right in zip(clean.results, outcome.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)


class TestSigkillResume:
    CHILD = textwrap.dedent("""\
        import sys

        from repro.config.system import MIB, SystemConfig
        from repro.experiments.campaign import (ResultCache, run_campaign,
                                                tasks_for)

        config = SystemConfig(cache_capacity_bytes=4 * MIB,
                              mm_capacity_bytes=64 * MIB, cores=2)
        tasks = tasks_for(["tdram", "cascade_lake", "no_cache"], ["cg.C"],
                          config=config, demands_per_core=350, seeds=[13])

        def progress(done, total, label, source, eta_s):
            print(source, flush=True)

        run_campaign(tasks, jobs=1, cache=ResultCache(sys.argv[1]),
                     progress=progress)
    """)

    def test_resume_simulates_only_uncached_tasks(self, tmp_path):
        """Integration: SIGKILL a cached campaign mid-flight and resume
        from that cache alone — every finished task is served from it
        intact, and exactly total - cached tasks re-simulate."""
        from repro.experiments.campaign import (ResultCache, run_campaign,
                                                tasks_for)

        script = tmp_path / "child.py"
        script.write_text(self.CHILD)
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        try:
            # Wait for the first completed simulation, then SIGKILL the
            # campaign mid-flight.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if line.strip() == "simulated":
                    break
            else:  # pragma: no cover - timing guard
                pytest.fail("child never completed a task")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup guard
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGKILL

        tasks = tasks_for(["tdram", "cascade_lake", "no_cache"], ["cg.C"],
                          config=FAST, demands_per_core=350, seeds=[13])
        outcome = run_campaign(tasks, jobs=1, cache=ResultCache(cache_dir))
        assert outcome.cached >= 1
        assert outcome.simulated == len(tasks) - outcome.cached
        assert outcome.cache_corrupt == 0
        assert all(result is not None for result in outcome.results)
