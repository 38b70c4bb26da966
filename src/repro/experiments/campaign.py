"""Parallel campaign engine with a content-addressed on-disk cache.

The paper's evaluation is a 28-workload x 7-design sweep (§IV); every
figure, sweep, and ablation is ultimately a batch of independent
``(design, workload, seed)`` simulations. This module turns such a
batch into a *campaign*:

* each run is a :class:`CampaignTask`, identified by a stable
  content-addressed :func:`cache_key` over everything that determines
  its outcome (design, workload spec, full :class:`SystemConfig`,
  work quantum, seed);
* :func:`run_campaign` fans tasks out over one process pool per
  campaign, one pool submission per task, and caches and reports each
  task as soon as it finishes. A task that raised, or whose worker
  died, runs again in the next round, up to ``retries`` extra attempts;
  the pool is replaced only after a worker died. A campaign with one
  task left to simulate runs it in-process. Results are bit-identical
  to the serial path because every simulation is seeded explicitly per
  task;
* a :class:`ResultCache` persists each :class:`RunResult` as JSON
  under its key. It is the campaign's only checkpoint: writes are
  fsynced and atomic, corrupt entries are quarantined and counted, and
  ``--resume`` after a crash serves every finished task from it;
* a task that exhausts its retries leaves ``None`` in its result slot
  and its last error in ``outcome.failures``, or raises
  :class:`~repro.errors.CampaignError` under ``strict``.

The engine is deliberately dependency-free: tasks and results are
plain dataclasses, keys are SHA-256 hexdigests, and the cache is a
directory of small JSON files safe to rsync or commit to CI artifact
storage. Failure and resume semantics are specified in
``docs/campaign.md``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.system import SystemConfig
from repro.errors import CampaignError
from repro.experiments.runner import RunResult, run_experiment
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import workload as lookup_workload

#: Bump to invalidate every existing cache entry (simulator behaviour
#: changes that alter results without touching any key ingredient).
#: 2: speculative fetches and prefetches carry their triggering demand's
#: age at the backing store (runs with the MAP-I predictor or the
#: prefetcher moved; default runs did not).
#: 3: BEAR honours ``cache_mode="write_only"`` (its ``write_only`` runs
#: moved; every other run did not).
CACHE_VERSION = 3

#: ``progress(done, total, label, source, eta_s)`` — ``source`` is one
#: of "cached", "simulated", "retried" or "failed"; ``eta_s`` is the
#: estimated remaining wall-clock (None until one simulation finished).
ProgressFn = Callable[[int, int, str, str, Optional[float]], None]


# ---------------------------------------------------------------------------
# Content-addressed keys
# ---------------------------------------------------------------------------
def _canonical(value):
    """Reduce any config/spec value to a canonical JSON-able form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: _canonical(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cache_key(
    design: str,
    spec: Union[WorkloadSpec, str],
    config: SystemConfig,
    demands_per_core: int,
    seed: int,
) -> str:
    """Stable SHA-256 key over everything that determines a RunResult.

    Two invocations share a key iff they would produce bit-identical
    results: the key covers the design, the *full* workload spec (not
    just its name), every ``SystemConfig`` field (timings, energy
    model, RAS campaign, geometry), the work quantum, the seed, and
    :data:`CACHE_VERSION`.
    """
    if isinstance(spec, str):
        spec = lookup_workload(spec)
    payload = {
        "v": CACHE_VERSION,
        "design": design,
        "workload": _canonical(spec),
        "config": _canonical(config),
        "demands_per_core": demands_per_core,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignTask:
    """One fully-specified simulation: ``(design, workload, seed)``
    under a given configuration and work quantum.

    ``trace_dir`` requests a per-run Chrome trace artifact written
    beside the cached result (``<trace_dir>/<key[:2]>/<key>.trace.json``)
    when ``config.obs.trace`` is on. It is a *destination*, not an
    outcome ingredient, so it is deliberately outside the cache key —
    the obs settings themselves (which do change the RunResult) are
    covered because the key canonicalises the full ``SystemConfig``.
    """

    design: str
    workload: WorkloadSpec
    config: SystemConfig
    demands_per_core: int = 600
    seed: int = 7
    trace_dir: Optional[str] = None

    @property
    def key(self) -> str:
        """The task's :func:`cache_key`, computed once."""
        # Memoised: canonicalising the full SystemConfig and hashing it
        # is expensive, and a campaign touches every task's key several
        # times (dedupe, cache probe, result alignment). The fields are
        # frozen, so the key can never go stale.
        key = self.__dict__.get("_key")
        if key is None:
            key = cache_key(self.design, self.workload, self.config,
                            self.demands_per_core, self.seed)
            object.__setattr__(self, "_key", key)
        return key

    @property
    def label(self) -> str:
        """Human-readable ``design/workload@seed``."""
        return f"{self.design}/{self.workload.name}@{self.seed}"


def trace_artifact_path(root: Union[str, Path], key: str) -> Path:
    """Where a task's Chrome trace lands: sharded like the result cache
    (``<root>/<key[:2]>/<key>.trace.json``)."""
    return Path(root) / key[:2] / f"{key}.trace.json"


def tasks_for(
    designs: Sequence[str],
    specs: Sequence[Union[WorkloadSpec, str]],
    config: Optional[SystemConfig] = None,
    demands_per_core: int = 600,
    seeds: Sequence[int] = (7,),
    trace_dir: Optional[str] = None,
) -> List[CampaignTask]:
    """The deterministic task list of a designs x workloads x seeds
    campaign (iteration order: design-major, then workload, then seed).

    Seeding is explicit and per-task: each task carries its own seed
    drawn from ``seeds``, so results never depend on pool scheduling.
    """
    resolved = [lookup_workload(s) if isinstance(s, str) else s for s in specs]
    config = config or SystemConfig.small()
    return [
        CampaignTask(design=design, workload=spec, config=config,
                     demands_per_core=demands_per_core, seed=seed,
                     trace_dir=trace_dir)
        for design in designs
        for spec in resolved
        for seed in seeds
    ]


def _execute_task(task: CampaignTask) -> RunResult:
    """Worker entry point (module-level so it pickles under any start
    method); runs one simulation exactly as the serial path would."""
    trace_out = None
    if task.trace_dir is not None and task.config.obs.trace:
        path = trace_artifact_path(task.trace_dir, task.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        trace_out = str(path)
    return run_experiment(task.design, task.workload, config=task.config,
                          demands_per_core=task.demands_per_core,
                          seed=task.seed, trace_out=trace_out)


def _attempt(runner: Callable[[CampaignTask], RunResult],
             task: CampaignTask) -> Tuple[Optional[RunResult], Optional[str]]:
    """Run ``task`` once: ``(result, None)``, or ``(None, repr(error))``
    when it raised, for the driver to retry or report."""
    try:
        return runner(task), None
    except Exception as error:  # noqa: BLE001 - retried/reported by the driver
        return None, repr(error)


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------
def quarantine_entry(path: Path) -> Optional[Path]:
    """Move a corrupt cache entry aside as ``<name>.corrupt``.

    Atomic (``os.replace``), idempotent under races (the loser of two
    concurrent quarantines just finds the file gone), and non-fatal:
    returns the quarantine path, or ``None`` if the move failed (the
    entry is then simply treated as a miss).
    """
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


class ResultCache:
    """Content-addressed JSON store of :class:`RunResult`s.

    Layout: ``<root>/<key[:2]>/<key>.json`` — each file holds the task
    metadata (for human inspection) and the result fields. It is the
    campaign's only checkpoint, so writes are durable and atomic: the
    entry is written to a temp file, fsynced, then ``os.replace``\\ d
    into place, and a failed write removes its temp file. An entry
    that nevertheless fails to decode (bit rot, a torn copy) is
    **quarantined** to ``<key>.json.corrupt`` and counted in
    :attr:`corrupt` — visible in the campaign summary as
    ``cache_corrupt`` — then re-simulated; stale-schema entries are
    ordinary misses.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.corrupt = 0

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        An undecodable entry is quarantined and counted, never served.
        """
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            # Undecodable bytes under a complete file: quarantine the
            # entry where an operator can inspect it and count it.
            self.corrupt += 1
            quarantine_entry(path)
            return None
        return result_from_dict(payload.get("result", {}))

    def put(self, key: str, result: RunResult,
            task: Optional[CampaignTask] = None) -> Path:
        """Durably and atomically store ``result`` under ``key``.

        ``task`` adds human-readable metadata beside the result. Raises
        ``OSError`` when the disk rejects the write (the campaign counts
        it in ``store_errors``); no temp file is left behind.
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "version": CACHE_VERSION,
            "result": dataclasses.asdict(result),
        }
        if task is not None:
            payload["task"] = {
                "design": task.design,
                "workload": task.workload.name,
                "demands_per_core": task.demands_per_core,
                "seed": task.seed,
            }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        """The number of result entries; the Chrome trace artifacts a
        traced campaign writes beside them are not results."""
        return sum(1 for path in self.root.glob("*/*.json")
                   if not path.name.endswith(".trace.json"))


def result_from_dict(data: Dict[str, object]) -> Optional[RunResult]:
    """Rebuild a :class:`RunResult` from its JSON dict, or ``None`` if
    the entry predates the current schema (missing required fields)."""
    if not isinstance(data, dict):
        return None
    names = {spec.name for spec in dataclasses.fields(RunResult)}
    kwargs = {k: v for k, v in data.items() if k in names}
    try:
        return RunResult(**kwargs)
    except TypeError:
        return None


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------
@dataclass
class CampaignOutcome:
    """What a campaign did: results aligned with the input task list
    plus execution accounting."""

    results: List[Optional[RunResult]]
    by_key: Dict[str, RunResult]
    simulated: int = 0
    cached: int = 0
    #: attempts that raised or lost their worker and ran again
    retried: int = 0
    #: ``{key: "label: last error"}`` for tasks that exhausted retries
    failures: Dict[str, str] = field(default_factory=dict)
    #: corrupt cache entries quarantined during this campaign
    cache_corrupt: int = 0
    #: cache writes that failed (ENOSPC and friends); the in-memory
    #: results are unaffected
    store_errors: int = 0
    wall_s: float = 0.0
    #: ``jobs`` after the cpu_count clamp; 0 until run_campaign fills
    #: it in
    jobs: int = 0

    @property
    def ok(self) -> bool:
        """Whether every task produced a result."""
        return not self.failures

    def summary(self) -> str:
        """One-line accounting, as the ``campaign`` CLI prints it."""
        return (f"campaign: tasks={len(self.results)} "
                f"simulated={self.simulated} cached={self.cached} "
                f"retried={self.retried} failures={len(self.failures)} "
                f"cache_corrupt={self.cache_corrupt} "
                f"store_errors={self.store_errors} "
                f"wall={self.wall_s:.1f}s jobs={self.jobs}")


def _run_pool(pending: Dict[str, CampaignTask], workers: int,
              runner: Callable[[CampaignTask], RunResult],
              record: Callable[[str, RunResult], None],
              retry: Callable[[str, str], bool]) -> None:
    """Simulate ``pending`` on one process pool of ``workers``, in rounds.

    Each task is its own future: a free worker takes the next task, and
    ``record`` (cache write, then progress line) or ``retry`` runs for
    each task as soon as its future completes, so a campaign killed
    part-way keeps every task that had finished. A task that raised, or
    whose worker died, runs again in the next round while ``retry``
    allows it. A dead worker breaks the whole pool, so that round's pool
    is shut down and the next round starts a new one; otherwise one pool
    serves every round.
    """
    remaining = list(pending)
    pool: Optional[ProcessPoolExecutor] = None
    try:
        while remaining:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            futures = {pool.submit(_attempt, runner, pending[key]): key
                       for key in remaining}
            again = set()
            lost_worker = False
            for future in as_completed(futures):
                key = futures[future]
                try:
                    result, detail = future.result()
                except Exception as error:  # noqa: BLE001 - charged per task
                    lost_worker |= isinstance(error, BrokenProcessPool)
                    result, detail = None, repr(error)
                if detail is None:
                    record(key, result)
                elif retry(key, detail):
                    again.add(key)
            if lost_worker:
                pool.shutdown()
                pool = None
            remaining = [key for key in remaining if key in again]
    finally:
        if pool is not None:
            pool.shutdown()


def run_campaign(
    tasks: Sequence[CampaignTask],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    reuse_cache: bool = True,
    retries: int = 2,
    progress: Optional[ProgressFn] = None,
    strict: bool = True,
    runner: Callable[[CampaignTask], RunResult] = _execute_task,
) -> CampaignOutcome:
    """Execute a batch of simulations, in parallel, resumably.

    Parameters
    ----------
    jobs:
        Worker processes. Values above ``os.cpu_count()`` are clamped:
        oversubscribed workers only add pickling and context-switch
        cost, they cannot add parallelism. The pool gets at most one
        worker per task left after the cache pass; with one worker or
        fewer everything runs in-process (no pool, no pickling), which
        is bit-identical to calling
        :func:`~repro.experiments.runner.run_experiment` in a loop.
    cache:
        Optional :class:`ResultCache`. Fresh results are always written
        to it; existing entries are only *read* when ``reuse_cache``.
        A failing write (disk full) is counted in
        ``outcome.store_errors``, and the in-memory result stands.
    retries:
        Extra attempts per task after it raised or its worker died.
        Retries re-run the identical task (explicit seed), so a
        retried result is indistinguishable from a first-attempt one.
    progress:
        Optional callback, see :data:`ProgressFn`.
    strict:
        Raise :class:`~repro.errors.CampaignError`, naming every
        failed task, if any task exhausts its retries; otherwise its
        slot in ``results`` is ``None`` and its last error lands in
        ``outcome.failures``.
    runner:
        Task executor (module-level for process pools); injectable for
        tests.
    """
    tasks = list(tasks)
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    start = time.monotonic()
    outcome = CampaignOutcome(results=[None] * len(tasks), by_key={},
                              jobs=jobs)
    corrupt_before = cache.corrupt if cache is not None else 0

    # Dedupe on key: figure batches repeat baselines; simulate once.
    unique: Dict[str, CampaignTask] = {}
    for task in tasks:
        unique.setdefault(task.key, task)
    total = len(unique)

    def report(label: str, source: str) -> None:
        """Hand one task's progress event to the callback."""
        if progress is None:
            return
        done = outcome.cached + outcome.simulated + len(outcome.failures)
        eta = None
        if outcome.simulated:
            per_task = (time.monotonic() - start) / outcome.simulated
            eta = per_task * (total - done)
        progress(done, total, label, source, eta)

    # Pass 1: serve from the cache.
    pending: Dict[str, CampaignTask] = {}
    for key, task in unique.items():
        hit = cache.get(key) if (cache is not None and reuse_cache) else None
        if hit is not None:
            outcome.by_key[key] = hit
            outcome.cached += 1
            report(task.label, "cached")
        else:
            pending[key] = task

    # Pass 2: simulate what's left, with bounded retry.
    attempts: Dict[str, int] = {key: 0 for key in pending}

    def record(key: str, result: RunResult) -> None:
        """Keep a fresh result and write it to the cache."""
        task = pending[key]
        outcome.by_key[key] = result
        outcome.simulated += 1
        if cache is not None:
            try:
                cache.put(key, result, task)
            except OSError:
                # Graceful degradation: the in-memory result stands,
                # the failed write is counted and visible.
                outcome.store_errors += 1
        report(task.label, "simulated")

    def retry(key: str, detail: str) -> bool:
        """Charge a failed attempt; return True if the task may run
        again, else record ``detail`` as its failure."""
        task = pending[key]
        attempts[key] += 1
        if attempts[key] <= retries:
            outcome.retried += 1
            report(task.label, "retried")
            return True
        outcome.failures[key] = f"{task.label}: {detail}"
        report(task.label, "failed")
        return False

    workers = min(jobs, len(pending))
    if workers <= 1:
        for key, task in pending.items():
            result, detail = _attempt(runner, task)
            while detail is not None and retry(key, detail):
                result, detail = _attempt(runner, task)
            if detail is None:
                record(key, result)
    else:
        _run_pool(pending, workers, runner, record, retry)

    outcome.results = [outcome.by_key.get(task.key) for task in tasks]
    if cache is not None:
        outcome.cache_corrupt = cache.corrupt - corrupt_before
    outcome.wall_s = time.monotonic() - start
    if strict and outcome.failures:
        raise CampaignError(
            "campaign failed for "
            + "; ".join(sorted(outcome.failures.values())))
    return outcome
