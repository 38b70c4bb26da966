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
  campaign, one pool submission per task and at most one task per
  worker in flight, and caches and reports each task as soon as it
  finishes. A task that raised, or whose worker died, runs again in the
  next round, up to ``retries`` extra attempts, unless it was rejected
  as bad input (``ConfigError``, ``WorkloadError``); the pool is
  replaced only after a worker died. Ctrl-C stops the campaign after
  the tasks it is running (a second Ctrl-C terminates them), and
  workers exit on their own if the driver dies. A campaign with one
  task left to simulate runs it in-process. Results are bit-identical to the serial
  path because every simulation is seeded explicitly per task;
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
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.config.system import SystemConfig
from repro.errors import CampaignError, ConfigError, WorkloadError
from repro.experiments.runner import RunResult, check_design, run_experiment
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
    model, geometry, observability), the work quantum, the seed, and
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
    under a given configuration and work quantum."""

    design: str
    workload: WorkloadSpec
    config: SystemConfig
    demands_per_core: int = 600
    seed: int = 7

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


def tasks_for(
    designs: Sequence[str],
    specs: Sequence[Union[WorkloadSpec, str]],
    config: Optional[SystemConfig] = None,
    demands_per_core: int = 600,
    seeds: Sequence[int] = (7,),
) -> List[CampaignTask]:
    """The deterministic task list of a designs x workloads x seeds
    campaign (iteration order: design-major, then workload, then seed).

    Seeding is explicit and per-task: each task carries its own seed
    drawn from ``seeds``, so results never depend on pool scheduling.
    An unknown design or workload name fails here, before any task runs.
    """
    for design in designs:
        check_design(design)
    resolved = [lookup_workload(s) if isinstance(s, str) else s for s in specs]
    config = config or SystemConfig.small()
    return [
        CampaignTask(design=design, workload=spec, config=config,
                     demands_per_core=demands_per_core, seed=seed)
        for design in designs
        for spec in resolved
        for seed in seeds
    ]


def _execute_task(task: CampaignTask) -> RunResult:
    """Worker entry point (module-level so it pickles under any start
    method); runs one simulation exactly as the serial path would."""
    return run_experiment(task.design, task.workload, config=task.config,
                          demands_per_core=task.demands_per_core,
                          seed=task.seed)


#: Errors that reject a task's input: raised the same way on every
#: attempt, so a retry would only repeat them.
_BAD_INPUT = (ConfigError, WorkloadError)


def _attempt(runner: Callable[[CampaignTask], RunResult],
             task: CampaignTask) \
        -> Tuple[Optional[RunResult], Optional[str], bool]:
    """Run ``task`` once: ``(result, None, False)``, or ``(None,
    repr(error), retryable)`` when it raised, for the driver to retry or
    report. Bad input (:data:`_BAD_INPUT`) is not retryable."""
    try:
        return runner(task), None, False
    except _BAD_INPUT as error:
        return None, repr(error), False
    except Exception as error:  # noqa: BLE001 - retried/reported by the driver
        return None, repr(error), True


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
        """The number of result entries."""
        return sum(1 for _ in self.root.glob("*/*.json"))


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


#: How often a pool worker checks that its driver is still alive.
_DRIVER_POLL_S = 0.5


def _init_worker() -> None:
    """Pool-worker set-up: leave Ctrl-C to the driver, and exit once the
    driver is gone.

    A terminal's Ctrl-C signals the whole process group; a worker
    ignores it, so the task it is running finishes and the driver can
    cache it. A daemon thread exits the worker when its parent changes,
    i.e. when the driver died without shutting the pool down (SIGKILL,
    the OOM killer); otherwise the worker would block forever on a queue
    nobody feeds.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()

    def watch() -> None:
        """Exit the worker once the driver is no longer its parent."""
        while os.getppid() == parent:
            time.sleep(_DRIVER_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="driver-watch", daemon=True).start()


def _run_pool(pending: Dict[str, CampaignTask], workers: int,
              runner: Callable[[CampaignTask], RunResult],
              record: Callable[[str, RunResult], None],
              retry: Callable[[str, str, bool], bool]) -> None:
    """Simulate ``pending`` on one process pool of ``workers``, in rounds.

    Each task is its own future, and at most one task per worker is in
    flight. When tasks finish, their workers are given the next tasks
    first; then ``record`` (cache write, then progress line) or
    ``retry`` runs for each finished task, so no worker waits on the
    driver's cache write, and a campaign killed part-way keeps every
    task that had finished. A task that raised, or whose worker died,
    runs again in the next round while ``retry`` allows it (it never
    does for bad input). A dead worker breaks the whole pool: the round
    submits nothing more, the tasks it had not submitted carry over
    uncharged, and the next round starts a new pool; otherwise one pool
    serves every round.

    On Ctrl-C (SIGINT) nothing more is submitted: the tasks already
    running finish and are recorded, then ``KeyboardInterrupt`` is
    raised. No task waits in the pool's own queue, so there is nothing
    to cancel. A second Ctrl-C while they run terminates the workers and
    drops their tasks. While the pool runs, SIGINT only sets a flag that
    the loop reads between its steps: raised as an exception at any
    bytecode it could leave a future's lock held part-way through
    ``concurrent.futures.wait``, and the pool's result thread would then
    block on that future for good. Off the main thread, where no signal
    handler can be set and no ``KeyboardInterrupt`` arrives, the flag
    stays unset.
    """
    # Imported here, not at module level: a serial run never loads
    # multiprocessing and what it pulls in.
    import signal
    from concurrent.futures import FIRST_COMPLETED, Future, wait
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)

    remaining = list(pending)
    pool: Optional[ProcessPoolExecutor] = None
    running: Dict[Future, str] = {}
    again: Set[str] = set()
    lost_worker = False
    interrupts = 0

    def settle(future: Future) -> None:
        """Record, or charge a retry to, one finished task."""
        nonlocal lost_worker
        key = running.pop(future)
        try:
            result, detail, retryable = future.result()
        except Exception as error:  # noqa: BLE001 - charged per task
            lost_worker |= isinstance(error, BrokenProcessPool)
            result, detail, retryable = None, repr(error), True
        if detail is None:
            record(key, result)
        elif retry(key, detail, retryable):
            again.add(key)

    def on_sigint(signum: int, frame: object) -> None:
        """Count a Ctrl-C; from the second on, terminate the workers,
        which fails their futures and so wakes the loop."""
        nonlocal interrupts
        interrupts += 1
        if interrupts > 1 and pool is not None:
            # No public way to stop a pool's workers before 3.14.
            for process in list(pool._processes.values()):
                process.terminate()

    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        while remaining and not interrupts:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers,
                                           initializer=_init_worker)
            queue = remaining[::-1]
            again.clear()
            lost_worker = False
            finished: List[Future] = []
            while True:
                while (queue and len(running) - len(finished) < workers
                       and not lost_worker and not interrupts):
                    try:
                        running[pool.submit(_attempt, runner,
                                            pending[queue[-1]])] = queue[-1]
                    except BrokenProcessPool:
                        lost_worker = True
                        break
                    queue.pop()
                if interrupts > 1:
                    break
                for future in finished:
                    settle(future)
                if not running:
                    break
                wait(running, return_when=FIRST_COMPLETED)
                finished = [future for future in running if future.done()]
            if lost_worker:
                pool.shutdown()
                pool = None
            unsubmitted = set(queue)
            remaining = [key for key in remaining
                         if key in again or key in unsubmitted]
        if interrupts:
            raise KeyboardInterrupt
    finally:
        if on_main_thread:
            signal.signal(signal.SIGINT, signal.SIG_DFL if previous is None
                          else previous)
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
        Worker processes, at least 1; a smaller value raises
        :class:`~repro.errors.ConfigError` before any task runs.
        Values above ``os.cpu_count()`` are clamped:
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
        Extra attempts per task after it raised or its worker died;
        non-negative, like ``jobs`` checked before any task runs.
        Retries re-run the identical task (explicit seed), so a
        retried result is indistinguishable from a first-attempt one.
        A task rejected as bad input (``ConfigError`` or
        ``WorkloadError``) fails on its first attempt.
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
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if retries < 0:
        raise ConfigError(f"retries must be non-negative, got {retries}")
    tasks = list(tasks)
    jobs = min(jobs, os.cpu_count() or 1)
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

    def retry(key: str, detail: str, retryable: bool) -> bool:
        """Charge a failed attempt; return True if the task may run
        again, else record ``detail`` as its failure."""
        task = pending[key]
        attempts[key] += 1
        if retryable and attempts[key] <= retries:
            outcome.retried += 1
            report(task.label, "retried")
            return True
        outcome.failures[key] = f"{task.label}: {detail}"
        report(task.label, "failed")
        return False

    workers = min(jobs, len(pending))
    if workers <= 1:
        for key, task in pending.items():
            result, detail, retryable = _attempt(runner, task)
            while detail is not None and retry(key, detail, retryable):
                result, detail, retryable = _attempt(runner, task)
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
