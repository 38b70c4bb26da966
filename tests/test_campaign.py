"""Tests for the parallel campaign engine and its on-disk result cache.

Covers the cache-key contract (every ingredient of a RunResult is part
of the key), the JSON result cache and its durability (fsync before
rename, no temp file after a failed write, corrupt-entry quarantine),
serial/parallel bit-identity, resume-with-zero-new-simulations, bounded
retry, the process-pool lifecycle, failed cache writes, and the
ExperimentContext keying fix (config changes can never serve a stale
result).
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import errno
import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config.system import MIB, OBS_ONLY, SystemConfig
from repro.errors import CampaignError, SimulationError
from repro.experiments.campaign import (
    CampaignTask,
    ResultCache,
    cache_key,
    quarantine_entry,
    run_campaign,
    tasks_for,
    trace_artifact_path,
)
from repro.experiments.figures import ExperimentContext
from repro.experiments.runner import RunResult, run_experiment
from repro.obs import ObsConfig
from repro.workloads.suite import representative_suite, workload
from tests.conftest import MARKERS, first_attempt

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)
DEMANDS = 80
SEED = 13


def fast_tasks(designs=("tdram", "cascade_lake"), specs=("cg.C", "bfs.22")):
    return tasks_for(designs, specs, config=FAST, demands_per_core=DEMANDS,
                     seeds=[SEED])


def fast_task() -> CampaignTask:
    return CampaignTask(design="tdram", workload=workload("cg.C"),
                        config=FAST, demands_per_core=DEMANDS, seed=SEED)


def leaf_paths(obj, prefix=()):
    """Field paths of every non-dataclass value under a dataclass,
    recursing through nested dataclasses."""
    for spec in dataclasses.fields(obj):
        path = prefix + (spec.name,)
        value = getattr(obj, spec.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_paths(value, path)
        else:
            yield path


def nested_dataclasses(obj):
    """Every dataclass instance under (and including) ``obj``."""
    yield obj
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        if dataclasses.is_dataclass(value):
            yield from nested_dataclasses(value)


def bumped(value):
    """A different value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, tuple):
        return value + (1.0,)
    if value is None:
        return "elsewhere"
    raise TypeError(f"no perturbation for {value!r}")


def perturbed(obj, path):
    """Copy of ``obj`` with the leaf at ``path`` bumped.

    Every level is a shallow copy written through
    ``object.__setattr__``, so ``__post_init__`` validation cannot
    reject the new value and the original stays untouched.
    """
    head, rest = path[0], path[1:]
    value = getattr(obj, head)
    clone = copy.copy(obj)
    object.__setattr__(clone, head,
                       perturbed(value, rest) if rest else bumped(value))
    return clone


TASK_LEAVES = list(leaf_paths(fast_task()))


def fail_first_attempt(task: CampaignTask) -> RunResult:
    """Runner that raises on each task's first attempt, then simulates.
    Module-level so it pickles into pool workers."""
    if first_attempt(task):
        raise RuntimeError("first attempt fails")
    return run_experiment(task.design, task.workload, config=task.config,
                          demands_per_core=task.demands_per_core,
                          seed=task.seed)


def wait_for_the_others(task: CampaignTask) -> RunResult:
    """Runner for a five-task campaign cached in the ``markers``
    directory: the task seeded ``SEED`` waits, up to 10 s, until the
    other four are cached, then simulates; the others simulate at once.
    Module-level so it pickles into pool workers."""
    if task.seed == SEED:
        cache = ResultCache(os.environ[MARKERS])
        deadline = time.monotonic() + 10
        while len(cache) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
    return run_experiment(task.design, task.workload, config=task.config,
                          demands_per_core=task.demands_per_core,
                          seed=task.seed)


class FullDiskCache(ResultCache):
    """A cache whose every write fails like a full disk."""

    def put(self, key, result, task=None):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture(scope="module")
def one_result() -> RunResult:
    return run_experiment("tdram", "cg.C", config=FAST,
                          demands_per_core=DEMANDS, seed=SEED)


class TestCacheKey:
    def test_stable_and_name_lookup_equivalent(self):
        key = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        assert key == cache_key("tdram", workload("cg.C"), FAST, DEMANDS,
                                SEED)
        assert len(key) == 64 and int(key, 16) >= 0

    @pytest.mark.parametrize("change", [
        dict(design="cascade_lake"),
        dict(spec="bfs.22"),
        dict(demands=DEMANDS + 1),
        dict(seed=SEED + 1),
    ])
    def test_each_ingredient_changes_the_key(self, change):
        base = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        other = cache_key(change.get("design", "tdram"),
                          change.get("spec", "cg.C"), FAST,
                          change.get("demands", DEMANDS),
                          change.get("seed", SEED))
        assert other != base

    @pytest.mark.parametrize("overrides", [
        dict(cache_ways=2),
        dict(flush_buffer_entries=8),
        dict(cores=2),
        dict(enable_probing=False),
    ])
    def test_any_config_field_changes_the_key(self, overrides):
        base = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        other = cache_key("tdram", "cg.C", FAST.with_(**overrides), DEMANDS,
                          SEED)
        assert other != base

    @pytest.mark.parametrize("path", TASK_LEAVES, ids=".".join)
    def test_every_leaf_field_changes_the_key(self, path):
        # Every leaf of the task — design, workload, every SystemConfig
        # field through its nested dataclasses, quantum, seed — changes
        # the key, except the declared observability-only fields.
        # (``fast_task()`` is fresh, so no memoised key is copied.)
        changed = perturbed(fast_task(), path).key != fast_task().key
        assert changed == (path[-1] not in OBS_ONLY), ".".join(path)

    def test_obs_only_names_real_fields_with_reasons(self):
        names = {path[-1] for path in TASK_LEAVES}
        for name, reason in OBS_ONLY.items():
            assert name in names, f"OBS_ONLY names no field {name!r}"
            assert reason.strip(), f"OBS_ONLY[{name!r}] has no reason"

    def test_every_keyed_dataclass_is_frozen(self):
        found = {type(obj).__name__: type(obj).__dataclass_params__.frozen
                 for obj in nested_dataclasses(fast_task())}
        assert {"SystemConfig", "DramTiming", "TagTiming", "SamplingConfig",
                "EnergyModel", "RasConfig", "ObsConfig"} <= set(found)
        assert all(found.values()), found

    def test_nested_config_changes_the_key(self):
        from repro.ras.config import RasConfig

        base = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        campaign = FAST.with_(ras=RasConfig.campaign(SEED))
        assert cache_key("tdram", "cg.C", campaign, DEMANDS, SEED) != base


class TestRunResultSerialization:
    def test_json_round_trips(self, one_result):
        data = dataclasses.asdict(one_result)
        assert json.loads(json.dumps(data)) == data

    def test_all_leaves_are_builtin(self, one_result):
        def check(value, path):
            if isinstance(value, dict):
                for k, v in value.items():
                    assert type(k) in (str, int), f"{path}[{k!r}]"
                    check(v, f"{path}[{k!r}]")
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    check(v, f"{path}[{i}]")
            else:
                assert type(value) in (int, float, str, bool, type(None)), \
                    f"{path} is {type(value)}"

        check(dataclasses.asdict(one_result), "result")

    def test_numpy_scalars_coerced_at_construction(self, one_result):
        data = dataclasses.asdict(one_result)
        data.update(
            miss_ratio=np.float64(0.5),
            demands=np.int64(100),
            breakdown={"read_hit": np.float64(1.0)},
            events={"x": np.int64(3)},
        )
        result = RunResult(**data)
        assert type(result.miss_ratio) is float
        assert type(result.demands) is int
        assert type(result.breakdown["read_hit"]) is float
        assert type(result.events["x"]) is int
        json.dumps(dataclasses.asdict(result))


class TestResultCache:
    def test_roundtrip(self, tmp_path, one_result):
        cache = ResultCache(tmp_path)
        key = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        path = cache.put(key, one_result)
        assert path.exists() and key in cache
        loaded = cache.get(key)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(one_result)

    def test_missing_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, one_result):
        cache = ResultCache(tmp_path)
        key = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        path = cache.put(key, one_result)
        path.write_text("not json{")
        assert cache.get(key) is None

    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path,
                                                      one_result):
        """Satellite: a corrupt entry is moved to *.corrupt and counted,
        never silently deleted."""
        cache = ResultCache(tmp_path)
        key = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        path = cache.put(key, one_result)
        path.write_text("not json{")
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()

    def test_campaign_counts_corrupt_entries_and_resimulates(self, tmp_path):
        """Satellite: a resumed campaign over a corrupted cache reports
        cache_corrupt in its summary and re-simulates the entry."""
        tasks = fast_tasks(designs=("tdram",), specs=("cg.C",))
        cache = ResultCache(tmp_path)
        run_campaign(tasks, jobs=1, cache=cache)
        cache.path(tasks[0].key).write_text("\xff garbage")
        resumed = run_campaign(tasks, jobs=1, cache=ResultCache(tmp_path))
        assert resumed.simulated == 1 and resumed.cached == 0
        assert resumed.cache_corrupt == 1
        assert "cache_corrupt=1" in resumed.summary()

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"result": {"design": "tdram"}}))
        assert cache.get(key) is None

    def test_put_fsyncs_the_temp_file_before_replacing(self, tmp_path,
                                                       one_result,
                                                       monkeypatch):
        """The entry's bytes reach the disk before the rename publishes
        them: the fsynced descriptor is the file that becomes the
        entry, and the fsync comes first."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(src).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        cache = ResultCache(tmp_path)
        key = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        path = cache.put(key, one_result)
        assert calls == [("fsync", path.stat().st_ino),
                         ("replace", f"{key}.tmp.{os.getpid()}")]

    def test_failed_put_leaves_no_temp_file(self, tmp_path, one_result,
                                            monkeypatch):
        """A write that dies half-way (disk full) re-raises and removes
        its temp file instead of leaving it in the cache directory."""
        def full_disk(obj, handle, **kwargs):
            handle.write('{"key": ')
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", full_disk)
        cache = ResultCache(tmp_path)
        key = cache_key("tdram", "cg.C", FAST, DEMANDS, SEED)
        with pytest.raises(OSError):
            cache.put(key, one_result)
        monkeypatch.undo()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert cache.get(key) is None

    def test_entry_records_task_metadata(self, tmp_path, one_result):
        cache = ResultCache(tmp_path)
        task = fast_tasks()[0]
        cache.put(task.key, one_result, task)
        payload = json.loads(cache.path(task.key).read_text())
        assert payload["task"]["design"] == task.design
        assert payload["task"]["workload"] == task.workload.name
        assert payload["task"]["seed"] == SEED
        assert len(cache) == 1

    def test_len_counts_results_not_trace_artifacts(self, tmp_path):
        """A traced campaign writes its Chrome trace beside the result
        entry (as ``tdram-repro campaign --trace`` does); only the
        result counts."""
        tasks = tasks_for(["tdram"], ["bfs.22"],
                          config=FAST.with_(obs=ObsConfig(trace=True)),
                          demands_per_core=40, seeds=[SEED],
                          trace_dir=str(tmp_path))
        cache = ResultCache(tmp_path)
        assert run_campaign(tasks, jobs=1, cache=cache).ok
        assert trace_artifact_path(tmp_path, tasks[0].key).exists()
        assert len(cache) == 1


class TestQuarantine:
    def test_quarantine_entry_moves_the_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("garbage")
        moved = quarantine_entry(path)
        assert moved == tmp_path / "entry.json.corrupt"
        assert moved.exists() and not path.exists()

    def test_quarantine_missing_file_is_none(self, tmp_path):
        assert quarantine_entry(tmp_path / "absent.json") is None


class TestCampaignExecution:
    def test_serial_matches_direct_runner(self):
        task = fast_tasks()[0]
        outcome = run_campaign([task], jobs=1)
        direct = run_experiment(task.design, task.workload, config=FAST,
                                demands_per_core=DEMANDS, seed=SEED)
        assert dataclasses.asdict(outcome.results[0]) == \
            dataclasses.asdict(direct)

    def test_parallel_bit_identical_to_serial_representative_suite(
            self, two_cpus):
        """Satellite: the parallel campaign over the representative
        suite is field-by-field identical to the serial path."""
        tasks = tasks_for(["tdram", "no_cache"], representative_suite(),
                          config=FAST, demands_per_core=50, seeds=[SEED])
        serial = run_campaign(tasks, jobs=1)
        parallel = run_campaign(tasks, jobs=2)
        assert parallel.simulated == len(tasks)
        for left, right in zip(serial.results, parallel.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)

    def test_duplicate_tasks_simulate_once(self):
        task = fast_tasks()[0]
        outcome = run_campaign([task, task, task], jobs=1)
        assert outcome.simulated == 1
        assert outcome.results[0] is outcome.results[1] is outcome.results[2]

    def test_resumed_campaign_performs_zero_new_simulations(
            self, tmp_path, two_cpus):
        tasks = fast_tasks()
        cache = ResultCache(tmp_path)
        first = run_campaign(tasks, jobs=1, cache=cache)
        assert first.simulated == len(tasks) and first.cached == 0
        resumed = run_campaign(tasks, jobs=2, cache=cache)
        assert resumed.simulated == 0
        assert resumed.cached == len(tasks)
        for left, right in zip(first.results, resumed.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)

    def test_reuse_cache_false_resimulates_but_rewrites(self, tmp_path):
        tasks = fast_tasks(designs=("tdram",), specs=("cg.C",))
        cache = ResultCache(tmp_path)
        run_campaign(tasks, jobs=1, cache=cache)
        fresh = run_campaign(tasks, jobs=1, cache=cache, reuse_cache=False)
        assert fresh.simulated == 1 and fresh.cached == 0

    def test_retry_recovers_from_transient_failure(self):
        task = fast_tasks()[0]
        calls = {"n": 0}

        def flaky(t):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated worker crash")
            return run_experiment(t.design, t.workload, config=t.config,
                                  demands_per_core=t.demands_per_core,
                                  seed=t.seed)

        outcome = run_campaign([task], jobs=1, retries=2, runner=flaky)
        assert outcome.retried == 1
        assert outcome.ok and outcome.results[0] is not None

    def test_exhausted_retries_fail_the_task(self):
        task = fast_tasks()[0]

        def broken(_task):
            raise RuntimeError("always down")

        outcome = run_campaign([task], jobs=1, retries=1, runner=broken,
                               strict=False)
        assert not outcome.ok
        assert outcome.retried == 1 and len(outcome.failures) == 1
        assert outcome.results == [None]

    def test_strict_failure_raises(self):
        bad = CampaignTask(design="not_a_design", workload=workload("cg.C"),
                           config=FAST, demands_per_core=DEMANDS, seed=SEED)
        with pytest.raises(CampaignError, match=re.escape(bad.label)) as exc:
            run_campaign([bad], jobs=1, retries=0)
        assert isinstance(exc.value, SimulationError)

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        """An absurd jobs count falls back to the serial path on a
        host the monkeypatch makes single-core: no pool is created."""
        import repro.experiments.campaign as campaign_mod

        monkeypatch.setattr(campaign_mod.os, "cpu_count", lambda: 1)

        def no_pool(*_args, **_kwargs):  # pragma: no cover - guard
            raise AssertionError("pool must not be created when clamped")

        monkeypatch.setattr(campaign_mod, "ProcessPoolExecutor", no_pool)
        tasks = fast_tasks(designs=("tdram",), specs=("cg.C",))
        outcome = run_campaign(tasks, jobs=64)
        assert outcome.simulated == len(tasks)

    def test_pool_recovers_from_worker_error(self, two_cpus):
        """A task that raises inside a pool worker is retried in the
        next round, and the other task's result stands."""
        good = fast_tasks(designs=("tdram",), specs=("cg.C",))[0]
        bad = CampaignTask(design="not_a_design", workload=workload("bfs.22"),
                           config=FAST, demands_per_core=DEMANDS, seed=SEED)
        outcome = run_campaign([good, bad], jobs=2, retries=1, strict=False)
        assert outcome.results[0] is not None
        assert outcome.results[1] is None
        assert outcome.retried == 1 and len(outcome.failures) == 1

    def test_store_error_degrades_gracefully(self, tmp_path):
        task = fast_tasks(designs=("tdram",), specs=("cg.C",))[0]
        outcome = run_campaign([task], jobs=1, cache=FullDiskCache(tmp_path))
        assert outcome.ok and outcome.results[0] is not None
        assert outcome.store_errors == 1
        assert "store_errors=1" in outcome.summary()

    def test_progress_reports_every_task(self):
        tasks = fast_tasks(designs=("tdram",))
        events = []
        run_campaign(tasks, jobs=1,
                     progress=lambda *args: events.append(args))
        assert len(events) == len(tasks)
        dones = [e[0] for e in events]
        assert dones == sorted(dones) and dones[-1] == len(tasks)
        assert all(e[3] == "simulated" for e in events)


class TestPoolLifecycle:
    def test_clean_run_uses_exactly_one_pool(self, pools, two_cpus):
        tasks = fast_tasks()
        outcome = run_campaign(tasks, jobs=2)
        assert outcome.ok and outcome.simulated == len(tasks)
        assert len(pools) == 1

    def test_error_retries_reuse_the_pool(self, pools, markers, two_cpus):
        """A task that raises inside a healthy worker runs again on the
        same pool: only a dead worker replaces it."""
        tasks = fast_tasks(designs=("tdram", "no_cache"), specs=("cg.C",))
        outcome = run_campaign(tasks, jobs=2, retries=1,
                               runner=fail_first_attempt)
        assert outcome.ok and outcome.simulated == len(tasks)
        assert outcome.retried == len(tasks)
        assert len(pools) == 1

    def test_one_task_left_runs_in_process(self, pools, two_cpus, tmp_path):
        """A campaign with one task left after the cache pass starts no
        pool, whatever ``jobs`` asks for."""
        tasks = fast_tasks(designs=("tdram",))
        cache = ResultCache(tmp_path)
        run_campaign(tasks[:1], jobs=1, cache=cache)
        outcome = run_campaign(tasks, jobs=2, cache=cache)
        assert outcome.cached == 1 and outcome.simulated == 1
        assert pools == []

    def test_finished_tasks_are_cached_while_others_run(self, markers,
                                                        two_cpus):
        """Each task is cached and reported when it finishes, not when a
        batch of tasks does: while task 0 holds one worker, the other
        worker runs tasks 1-4 and each lands in the cache at once."""
        tasks = tasks_for(["tdram"], ["cg.C"], config=FAST,
                          demands_per_core=DEMANDS,
                          seeds=range(SEED, SEED + 5))
        labels = []
        outcome = run_campaign(
            tasks, jobs=2, cache=ResultCache(markers),
            runner=wait_for_the_others,
            progress=lambda done, total, label, source, eta: labels.append(
                label))
        assert outcome.ok and outcome.simulated == len(tasks)
        assert set(labels[:4]) == {task.label for task in tasks[1:]}
        assert labels[4] == tasks[0].label


class TestExperimentContextKeying:
    def test_memoises_identical_runs(self):
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=DEMANDS, seed=SEED)
        assert ctx.result("tdram", ctx.specs[0]) is \
            ctx.result("tdram", ctx.specs[0])

    def test_config_change_invalidates_memo(self):
        """Satellite: keying covers config + seed + demands, so a sweep
        that rebinds the context's SystemConfig never sees stale data."""
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=DEMANDS, seed=SEED)
        before = ctx.result("tdram", ctx.specs[0])
        ctx.config = FAST.with_(max_outstanding_reads_per_core=1)
        after = ctx.result("tdram", ctx.specs[0])
        assert after is not before
        assert after.runtime_ps != before.runtime_ps

    def test_seed_and_demands_part_of_memo_key(self):
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=DEMANDS, seed=SEED)
        before = ctx.result("tdram", ctx.specs[0])
        ctx.seed = SEED + 1
        assert ctx.result("tdram", ctx.specs[0]) is not before
        ctx.seed = SEED
        assert ctx.result("tdram", ctx.specs[0]) is before
        ctx.demands_per_core = DEMANDS + 20
        assert ctx.result("tdram", ctx.specs[0]) is not before

    def test_shared_disk_cache_between_contexts(self, tmp_path):
        spec = workload("cg.C")
        first = ExperimentContext(config=FAST, specs=[spec],
                                  demands_per_core=DEMANDS, seed=SEED,
                                  cache=tmp_path)
        result = first.result("tdram", spec)
        second = ExperimentContext(config=FAST, specs=[spec],
                                   demands_per_core=DEMANDS, seed=SEED,
                                   cache=tmp_path)
        reloaded = second.result("tdram", spec)
        assert dataclasses.asdict(reloaded) == dataclasses.asdict(result)
        # A different config sharing the same cache dir must re-simulate.
        other = ExperimentContext(config=FAST.with_(cache_ways=2),
                                  specs=[spec], demands_per_core=DEMANDS,
                                  seed=SEED, cache=tmp_path)
        other.result("tdram", spec)
        assert len(ResultCache(tmp_path)) == 2

    def test_store_error_keeps_the_result(self, tmp_path):
        """A failed cache write (disk full) costs the entry, not the
        finished simulation: ``result`` returns and memoises it."""
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=DEMANDS, seed=SEED,
                                cache=FullDiskCache(tmp_path))
        result = ctx.result("tdram", ctx.specs[0])
        assert result.demands > 0
        assert ctx.result("tdram", ctx.specs[0]) is result
        assert len(ResultCache(tmp_path)) == 0

    def test_warm_populates_memo(self):
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=DEMANDS, seed=SEED)
        outcome = ctx.warm(ctx.cells(["tdram", "no_cache"]))
        assert outcome.simulated == 2
        warmed = ctx.result("tdram", ctx.specs[0])
        assert warmed is ctx._memo[ctx.task("tdram", ctx.specs[0]).key]

    def test_warm_skips_memoised_cells(self):
        """Without a disk cache, warming a cell the memo holds must not
        simulate it again."""
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=DEMANDS, seed=SEED)
        first = ctx.result("tdram", ctx.specs[0])
        outcome = ctx.warm(ctx.cells(["tdram", "no_cache"]))
        assert outcome.simulated == 1 and len(outcome.results) == 1
        assert ctx.result("tdram", ctx.specs[0]) is first

    def test_overrides_run_under_the_modified_config(self):
        ctx = ExperimentContext(config=FAST, specs=[workload("is.D")],
                                demands_per_core=DEMANDS, seed=SEED)
        spec = ctx.specs[0]
        outcome = ctx.warm(ctx.cells(["tdram"])
                           + ctx.cells(["tdram"], enable_probing=False))
        assert outcome.simulated == 2
        probed = ctx.result("tdram", spec)
        unprobed = ctx.result("tdram", spec, enable_probing=False)
        assert dataclasses.asdict(unprobed) == dataclasses.asdict(
            run_experiment("tdram", spec, FAST.with_(enable_probing=False),
                           demands_per_core=DEMANDS, seed=SEED))
        assert unprobed.probes == 0 < probed.probes

    def test_with_specs_shares_the_memo(self):
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C"),
                                                    workload("is.D")],
                                demands_per_core=DEMANDS, seed=SEED)
        view = ctx.with_specs(ctx.specs[:1])
        assert view.specs == ctx.specs[:1]
        assert view.result("ideal", ctx.specs[0]) is \
            ctx.result("ideal", ctx.specs[0])
