"""Epoch metric streams: a columnar time series of one run.

An :class:`EpochRecorder` wakes every ``epoch_ps`` of *simulated* time
and appends one row to a column-oriented series (plain ``dict`` of
lists — ``pandas.DataFrame(result.epochs)`` away from analysis). Two
kinds of columns exist:

* **delta columns** — per-epoch increments of cumulative counters
  (demands, hits, bytes moved, writebacks). Their sums
  reconcile exactly with the run's final aggregates, which a tier-1
  test asserts;
* **level columns** — instantaneous occupancies sampled at the epoch
  boundary (read/write queues, MSHRs, flush buffer).

The experiment runner resets the recorder at the warm-up boundary (in
the same kernel callback that resets the metrics) and takes one final
partial-epoch sample before harvesting, so the series covers exactly
the measured region. The schema is documented in ``docs/tracing.md``.
"""

from __future__ import annotations

from typing import Dict, List

#: Cumulative counters recorded as per-epoch deltas.
DELTA_COLUMNS = (
    "demands", "hits", "misses", "reads", "writes",
    "useful_bytes", "total_bytes", "bytes_read", "bytes_written",
    "writebacks",
)

#: Instantaneous occupancies sampled at each epoch boundary.
LEVEL_COLUMNS = ("read_q", "write_q", "mshr", "flush_occupancy")

#: Every column of the series, in export order.
COLUMNS = ("t_us",) + DELTA_COLUMNS + LEVEL_COLUMNS


class EpochRecorder:
    """Samples controller state every ``epoch_ps`` into columnar lists."""

    def __init__(self, controller, epoch_ps: int) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.epoch_ps = max(1, epoch_ps)
        self.series: Dict[str, List[float]] = {name: [] for name in COLUMNS}
        self._last = self._snapshot()
        self._finalized = False
        self.sim.schedule(self.epoch_ps, self._tick)

    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, int]:
        """Current values of every cumulative (delta) counter."""
        controller = self.controller
        metrics = controller.metrics
        ledger = metrics.ledger
        snap = {name: metrics.total(name)
                for name in ("demands", "hits", "misses", "reads", "writes")}
        snap.update({
            "useful_bytes": ledger.useful_bytes,
            "total_bytes": ledger.total_bytes,
            "bytes_read": sum(ch.bytes_read for ch in controller.channels),
            "bytes_written": sum(ch.bytes_written for ch in controller.channels),
            "writebacks": controller.writebacks,
        })
        return snap

    def _levels(self) -> Dict[str, int]:
        """Current values of every occupancy (level) column."""
        controller = self.controller
        flush = getattr(controller, "flush", None)
        return {
            "read_q": sum(len(s.read_q) for s in controller.schedulers),
            "write_q": sum(len(s.write_q) for s in controller.schedulers),
            "mshr": len(controller._mshrs),
            "flush_occupancy": len(flush) if flush is not None else 0,
        }

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """Periodic sampling callback (self-rescheduling)."""
        if self._finalized:
            return
        self._sample()
        self.sim.schedule(self.epoch_ps, self._tick)

    def _sample(self) -> None:
        current = self._snapshot()
        self.series["t_us"].append(self.sim.now / 1e6)
        for name in DELTA_COLUMNS:
            self.series[name].append(current[name] - self._last[name])
        levels = self._levels()
        for name in LEVEL_COLUMNS:
            self.series[name].append(levels[name])
        self._last = current

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded epochs and re-baseline the cumulative counters.

        Called by the runner at the warm-up boundary, in the same
        kernel callback that resets the metrics, so delta sums over the
        remaining epochs equal the final measured-region aggregates.
        """
        for column in self.series.values():
            column.clear()
        self._last = self._snapshot()

    def finalize(self) -> None:
        """Take one last (partial-epoch) sample and stop ticking.

        Without this, counts accumulated after the final whole epoch
        would be missing and the delta sums would undershoot the final
        aggregates.
        """
        if not self._finalized:
            self._sample()
            self._finalized = True

    @property
    def epochs(self) -> int:
        """Number of recorded epoch rows."""
        return len(self.series["t_us"])
