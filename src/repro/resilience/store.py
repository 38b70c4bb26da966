"""The pluggable result-store seam under the campaign cache.

:class:`ResultStore` is the interface the campaign engine talks to —
the local content-addressed directory cache
(:class:`repro.experiments.campaign.ResultCache`) is one
implementation, the chaos wrapper
(:class:`repro.resilience.chaos.ChaosStore`) another, and the remote
HTTP backend the distributed-service roadmap item needs slots in here
without touching the engine.

The interface bakes in the crash-safety contract every implementation
must honour:

* ``put`` is atomic — a reader never observes a half-written entry
  (the directory store writes a temp file and ``os.replace``\\ s it);
* ``get`` never returns garbage — an entry that fails to decode is
  **quarantined** (renamed to ``*.corrupt`` by
  :func:`quarantine_entry`) and counted in :attr:`ResultStore.corrupt`,
  not silently re-simulated, so operators can see and inspect
  corruption instead of paying for it invisibly;
* ``put`` may raise ``OSError`` (disk full, permissions) — the engine
  degrades gracefully: the in-memory result survives, the write
  failure is counted, and the campaign completes.
"""

from __future__ import annotations

import abc
import os
from pathlib import Path
from typing import Optional


def quarantine_entry(path: Path) -> Optional[Path]:
    """Move a corrupt store entry aside as ``<name>.corrupt``.

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


class ResultStore(abc.ABC):
    """Abstract content-addressed store of run results.

    Keys are SHA-256 hexdigests (see
    :func:`repro.experiments.campaign.cache_key`); values are
    :class:`~repro.experiments.runner.RunResult` objects. Subclasses
    implement :meth:`get`, :meth:`put`, and :meth:`__contains__`, and
    maintain the ``hits`` / ``misses`` / ``corrupt`` counters.
    """

    #: cache probes that returned a stored result
    hits: int = 0
    #: cache probes that found nothing usable
    misses: int = 0
    #: entries found corrupt and quarantined (counted, never silent)
    corrupt: int = 0

    @abc.abstractmethod
    def get(self, key: str):
        """Return the stored result for ``key`` or ``None``.

        Implementations must quarantine-and-count undecodable entries
        rather than raising or silently missing.
        """

    @abc.abstractmethod
    def put(self, key: str, result, task=None):
        """Atomically store ``result`` under ``key``.

        ``task`` optionally carries human-readable metadata to persist
        beside the result. May raise ``OSError`` on storage failure —
        callers are expected to degrade gracefully.
        """

    @abc.abstractmethod
    def __contains__(self, key: str) -> bool:
        """Whether an entry is stored under ``key`` (``get`` decodes it)."""
