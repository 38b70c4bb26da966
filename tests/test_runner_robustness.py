"""Robustness paths: watchdogs, finite streams, fill-eviction races,
worker-crash recovery, SIGKILL-resume of cached campaigns, and how a
parallel campaign stops on Ctrl-C or when its driver dies."""

import dataclasses
import json
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.cache import DESIGNS
from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.metrics import CacheMetrics
from repro.cache.request import Op
from repro.config.system import MIB, SystemConfig
from repro.errors import ConfigError, SimulationError
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


class TestBadRunInputs:
    """A work quantum or a seed that cannot run fails before simulating,
    naming the bad value."""

    @pytest.mark.parametrize("demands", [0, -5])
    def test_non_positive_quantum_rejected(self, demands):
        with pytest.raises(ConfigError, match=f"demands_per_core.*{demands}"):
            run_experiment("tdram", "bfs.22", config=FAST,
                           demands_per_core=demands, seed=7)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed.*-1"):
            run_experiment("tdram", "bfs.22", config=FAST,
                           demands_per_core=50, seed=-1)


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


def _child_env():
    """The environment of a child interpreter that imports this tree's
    ``repro``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


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
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=_child_env(), text=True)
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


def _live_members(pgid):
    """Pids of the processes in group ``pgid`` that have not exited
    (zombies excluded: an orphan's reaper may be slow to collect it)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(stat.parent.name))
    return live


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
class TestCampaignStop:
    """A ``jobs=2`` campaign driver run in its own process group, over
    twelve tasks that each sleep ``TASK_S`` seconds in the worker before
    a tiny simulation, so a task's run time is known."""

    TASK_S = 1.0
    CHILD = textwrap.dedent("""\
        import os
        import sys
        import time

        import repro.experiments.campaign as campaign
        from repro.config.system import MIB, SystemConfig
        from repro.experiments.campaign import (ResultCache, run_campaign,
                                                tasks_for)
        from repro.experiments.runner import run_experiment

        CACHE, TASK_S = sys.argv[1], float(sys.argv[2])


        def slow(task):
            open(os.path.join(CACHE, f"{os.getpid()}.started"), "w").close()
            time.sleep(TASK_S)
            return run_experiment(task.design, task.workload,
                                  config=task.config,
                                  demands_per_core=task.demands_per_core,
                                  seed=task.seed)


        def progress(done, total, label, source, eta_s):
            print(source, label, flush=True)


        if __name__ == "__main__":
            campaign.os.cpu_count = lambda: 2
            config = SystemConfig(cache_capacity_bytes=4 * MIB,
                                  mm_capacity_bytes=64 * MIB, cores=2)
            tasks = tasks_for(["tdram", "cascade_lake"],
                              ["cg.C", "lu.C", "bfs.22"], config=config,
                              demands_per_core=30, seeds=[13, 14])
            run_campaign(tasks, jobs=2, cache=ResultCache(CACHE),
                         progress=progress, runner=slow)
    """)

    #: Prepended to CHILD: once a task is cached, the driver's next
    #: ordered acquire of future locks (in ``concurrent.futures.wait``)
    #: that includes a running task raises SIGINT right after taking that
    #: task's lock, as a Ctrl-C that lands there does.
    SIGINT_IN_FUTURE_LOCK = textwrap.dedent("""\
        import glob
        import signal
        import sys
        from concurrent.futures import _base

        _acquire_in_order = _base._AcquireFutures.__enter__
        _fired = []


        def _acquire_then_interrupt(self):
            if (_fired or all(future.done() for future in self.futures)
                    or not glob.glob(sys.argv[1] + "/*/*.json")):
                return _acquire_in_order(self)
            _fired.append(True)
            for future in self.futures:
                future._condition.acquire()
                if not _fired[1:] and not future.done():
                    _fired.append(True)
                    signal.raise_signal(signal.SIGINT)


        _base._AcquireFutures.__enter__ = _acquire_then_interrupt
    """)

    def _tasks(self):
        from repro.experiments.campaign import tasks_for

        return tasks_for(["tdram", "cascade_lake"],
                         ["cg.C", "lu.C", "bfs.22"], config=FAST,
                         demands_per_core=30, seeds=[13, 14])

    def _start(self, tmp_path, task_s, prelude=""):
        script = tmp_path / "driver.py"
        script.write_text(prelude + self.CHILD)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir), str(task_s)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=_child_env(), text=True, start_new_session=True)
        return proc, cache_dir

    @staticmethod
    def _reap(proc):
        """Kill whatever is left of the driver's process group; return
        the driver's output not read yet."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        with proc.stdout:
            return proc.stdout.read()

    @pytest.mark.parametrize("target", ["driver", "group"])
    def test_interrupt_stops_after_running_tasks(self, tmp_path, target):
        """SIGINT to the driver alone, or to its whole process group as
        a terminal's Ctrl-C sends it: the driver submits no more tasks,
        caches the ones running, and exits within about one task's run
        time; ``--resume`` then simulates exactly the rest."""
        from repro.experiments.campaign import ResultCache, run_campaign

        proc, cache_dir = self._start(tmp_path, self.TASK_S)
        reported = []
        try:
            deadline = time.monotonic() + 60
            while not reported:
                ready = select.select([proc.stdout], [], [],
                                      deadline - time.monotonic())[0]
                assert ready, "no task finished in time"
                line = proc.stdout.readline()
                assert line, "driver exited before finishing a task"
                if line.startswith("simulated "):
                    reported.append(line)
            before = len(reported)
            interrupted = time.monotonic()
            if target == "group":
                os.killpg(proc.pid, signal.SIGINT)
            else:
                os.kill(proc.pid, signal.SIGINT)
            proc.wait(timeout=30)
            elapsed = time.monotonic() - interrupted
        finally:
            rest = self._reap(proc)
        reported += [line for line in rest.splitlines()
                     if line.startswith("simulated ")]
        assert proc.returncode == -signal.SIGINT
        assert elapsed < 1.5 * self.TASK_S + 0.5, elapsed
        cached = set()
        for entry in cache_dir.glob("*/*.json"):
            task = json.loads(entry.read_text())["task"]
            cached.add(f"{task['design']}/{task['workload']}"
                       f"@{task['seed']}")
        # every reported task is cached, the ones running at the
        # interrupt included
        assert cached == {line.split()[1] for line in reported}
        assert len(cached) > before

        tasks = self._tasks()
        outcome = run_campaign(tasks, jobs=1, cache=ResultCache(cache_dir))
        assert outcome.cached == len(cached)
        assert outcome.simulated == len(tasks) - len(cached)

    def test_interrupt_inside_a_future_lock_still_stops(self, tmp_path):
        """A SIGINT that lands while the driver holds a future's lock,
        part-way through the ordered acquire in ``wait``, stops the
        campaign like any other. Raised there as ``KeyboardInterrupt``
        it would leave the lock held, so the pool's result thread would
        block on that future for good and the driver would never exit."""
        proc, cache_dir = self._start(tmp_path, self.TASK_S,
                                      self.SIGINT_IN_FUTURE_LOCK)
        try:
            proc.wait(timeout=10)
        finally:
            rest = self._reap(proc)
        reported = {line.split()[1] for line in rest.splitlines()
                    if line.startswith("simulated ")}
        cached = set()
        for entry in cache_dir.glob("*/*.json"):
            task = json.loads(entry.read_text())["task"]
            cached.add(f"{task['design']}/{task['workload']}"
                       f"@{task['seed']}")
        assert proc.returncode == -signal.SIGINT
        assert cached == reported
        assert 1 < len(cached) < len(self._tasks())

    def test_workers_exit_when_the_driver_is_killed(self, tmp_path):
        """SIGKILL to the driver alone (the OOM killer's case) while both
        workers run long tasks: the workers exit on their own."""
        proc, cache_dir = self._start(tmp_path, 60.0)
        try:
            deadline = time.monotonic() + 30
            while len(list(cache_dir.glob("*.started"))) < 2:
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5
            while _live_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _live_members(proc.pid) == []
        finally:
            self._reap(proc)

    def test_second_interrupt_stops_the_workers(self, tmp_path):
        """A second SIGINT while the driver waits for long running tasks
        terminates the workers: the driver exits at once and leaves no
        process behind."""
        proc, cache_dir = self._start(tmp_path, 60.0)
        try:
            deadline = time.monotonic() + 30
            while len(list(cache_dir.glob("*.started"))) < 2:
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGINT)
            time.sleep(0.5)
            os.kill(proc.pid, signal.SIGINT)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while _live_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert proc.returncode == -signal.SIGINT
            assert _live_members(proc.pid) == []
            assert list(cache_dir.glob("*/*.json")) == []
        finally:
            self._reap(proc)
