"""Event-driven simulation kernel.

Time is kept as an integer number of **picoseconds**. The paper's Table III
uses half-nanosecond granularity (e.g. ``tHM = 7.5 ns``), so picoseconds
keep every timing value exact while remaining hashable and overflow-free
for any realistic simulation length.

Scheduler design
----------------
The pending-event set is a **sparse calendar queue** exploiting the
integer time base:

* events land in buckets of ``2**_BUCKET_SHIFT`` ps each; a dict
  maps each occupied bucket id to its handles (``list.append``, O(1))
  and a min-heap holds the occupied bucket ids;
* the drain side pops the next *occupied* bucket id and installs the
  whole bucket as the current batch (``_cur``) with one sort — a sorted
  list is a valid binary heap — so empty buckets are never visited and
  a long idle gap (refresh idles, drain tails) costs O(log occupied);
* arrivals scheduled into the current (or an earlier) bucket mid-drain
  heap-push into ``_cur``, so exact ``(time, seq)`` order is preserved.

Buckets are 16.4 ns wide (``_BUCKET_SHIFT = 14``): a bucket gathers a
burst of near-future traffic — command retries, data bursts, HM
results, bank wakes — so the per-bucket install (dict pop, id-heap pop,
sort) is shared by several events instead of paid per event, while
each sorted batch stays small. End to end, 16 ns buckets measured
faster than 1 ns ones (see docs/performance.md). Dispatch order is
**exactly** the ``(time, seq)`` order of a plain binary heap (locked by
a randomized equivalence test); determinism is guaranteed by the
monotonically increasing sequence number used as a tie-breaker for
simultaneous events.

Events are small mutable handles, which buys **O(1) cancellation**
(:meth:`Simulator.cancel` tombstones the handle in place; the drain
loop skips dead entries) and argument passing without per-event closure
allocation: ``sim.at(t, self._writeback, block)`` instead of
``sim.at(t, lambda: self._writeback(block))``.

For A/B verification the classic heapq scheduler is still available:
``Simulator(queue="heap")`` routes every event through one binary heap
(a calendar whose current bucket never ends). Both queues dispatch
bit-identically (the randomized equivalence test plus the whole-run
A/B suite in ``tests/test_sampling.py``); the calendar is simply faster.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Picoseconds per nanosecond; all public timing parameters are in ns.
PS_PER_NS = 1000

#: log2 of the calendar bucket width: 16 384 ps ≈ 16.4 ns buckets.
_BUCKET_SHIFT = 14

#: Sentinel bound larger than any simulated time or event count.
_UNBOUNDED = float("inf")

#: Handle slots: [time_ps, seq, callback, args]. ``callback`` becomes
#: ``None`` once dispatched or cancelled (the tombstone). Handles sort
#: by (time, seq) under list comparison because seq is unique.
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3


def ns(value: float) -> int:
    """Convert a nanosecond quantity to integer picoseconds.

    Values are rounded to the nearest picosecond; Table III values are
    multiples of 0.5 ns so the conversion is always exact in practice.

    >>> ns(7.5)
    7500
    """
    return int(round(value * PS_PER_NS))


def to_ns(picoseconds: int) -> float:
    """Convert integer picoseconds back to (float) nanoseconds."""
    return picoseconds / PS_PER_NS


class Simulator:
    """A deterministic event-driven simulator with integer time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(ns(5), lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [5000]

    Clock semantics of the three ways a :meth:`run` can end
    ------------------------------------------------------
    * ``until=`` bound reached — ``now`` is advanced **to the bound**,
      even when future events remain queued, so chunked callers observe
      ``now == until`` after every chunk;
    * :meth:`stop` requested — ``now`` stays **at the last dispatched
      event** (the stopping callback's time);
    * ``max_events`` exhausted — ``now`` stays **at the last dispatched
      event**, like ``stop``.

    The asymmetry is deliberate: ``stop``/``max_events`` end a run
    *early* (before any bound), so advancing the clock would invent
    simulated time nothing observed; see :meth:`run` for why the bound
    case must advance.

    Profiling
    ---------
    :attr:`profiler` is ``None`` by default. Assign an object with a
    ``record(callback, wall_ns)`` method (e.g.
    :class:`repro.obs.KernelProfiler`) and the dispatch loop times
    every callback with the host clock; with ``None`` the loop takes an
    uninstrumented branch — the profiler check is hoisted out of the
    loop entirely, no timestamps are read, and dispatch order, event
    counts, and results are unchanged either way.
    """

    #: Queue implementation new simulators default to. The A/B
    #: equivalence tests flip this to ``"heap"`` to run whole
    #: experiments on the reference scheduler.
    DEFAULT_QUEUE = "calendar"

    def __init__(self, queue: Optional[str] = None) -> None:
        queue = queue or self.DEFAULT_QUEUE
        if queue not in ("calendar", "heap"):
            raise SimulationError(
                f"unknown queue implementation {queue!r}; choose from "
                "('calendar', 'heap')")
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._stop_requested = False
        #: events scheduled but neither dispatched nor cancelled
        self._live = 0
        #: heap of handles for bucket ids <= the drain cursor
        self._cur: List[list] = []
        #: bucket id currently being drained into ``_cur``; the "heap"
        #: oracle is the degenerate calendar whose current bucket never
        #: ends, so every event heap-pushes into ``_cur``
        self._cur_bid: float = _UNBOUNDED if queue == "heap" else 0
        #: sparse calendar: occupied bucket id -> pending handles
        self._cal: Dict[int, List[list]] = {}
        #: min-heap of occupied calendar bucket ids
        self._occ: List[int] = []
        #: optional profiler with ``record(callback, wall_ns)``; set by
        #: the observability layer (``SystemConfig.obs.profile``)
        self.profiler = None

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def now_ns(self) -> float:
        """Current simulation time in nanoseconds."""
        return to_ns(self._now)

    def pending(self) -> int:
        """Number of events scheduled and still due to dispatch
        (cancelled events stop counting immediately)."""
        return self._live

    def at(self, time: int, callback: Callable, *args: object) -> list:
        """Schedule ``callback(*args)`` at absolute ``time`` (ps).

        Returns an opaque handle accepted by :meth:`cancel`. Extra
        positional arguments are stored on the handle, so hot paths can
        schedule bound methods directly instead of allocating a closure
        per event.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} ps, now is {self._now} ps"
            )
        handle = [time, self._seq, callback, args]
        self._seq += 1
        self._live += 1
        bid = time >> _BUCKET_SHIFT
        if bid <= self._cur_bid:
            # Into (or before) the batch being drained: keep exact
            # (time, seq) order via the current heap.
            heappush(self._cur, handle)
        else:
            slot = self._cal.get(bid)
            if slot is None:
                self._cal[bid] = [handle]
                heappush(self._occ, bid)
            else:
                slot.append(handle)
        return handle

    def schedule(self, delay: int, callback: Callable, *args: object) -> list:
        """Schedule ``callback(*args)`` after ``delay`` picoseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} ps")
        return self.at(self._now + delay, callback, *args)

    def cancel(self, handle: list) -> bool:
        """Cancel a scheduled event in O(1).

        ``handle`` is the value returned by :meth:`at`/:meth:`schedule`.
        Returns ``True`` if the event was still pending (it will now
        never fire); ``False`` if it already dispatched or was already
        cancelled. The handle is tombstoned in place and skipped by the
        drain loop, so cancellation never perturbs the order or timing
        of surviving events.
        """
        if handle[_CALLBACK] is None:
            return False
        handle[_CALLBACK] = None
        handle[_ARGS] = ()
        self._live -= 1
        return True

    def peek_time(self) -> Optional[int]:
        """Time (ps) of the next pending event, or ``None`` if idle.

        O(1) amortised: tombstones and buckets installed here are work
        the next :meth:`run` no longer has to do.
        """
        head = self._front()
        return None if head is None else head[_TIME]

    # ------------------------------------------------------------------
    def _front(self) -> Optional[list]:
        """The next live handle (left at ``_cur[0]``), or ``None``.

        Discards tombstones; once the current batch is empty, pops the
        next *occupied* bucket id off the min-heap — empty buckets are
        never visited — and installs the bucket's surviving handles as
        the current batch with one sort (a sorted list is a valid
        binary heap, so the dispatch loop needs no ``heapify``). Safe
        to call outside :meth:`run`: a later ``at()`` into a bucket at
        or before the installed one still lands in ``_cur``, so no
        event can be skipped.
        """
        cur = self._cur
        cal = self._cal
        occ = self._occ
        while True:
            while cur:
                head = cur[0]
                if head[_CALLBACK] is not None:
                    return head
                heappop(cur)
            if self._live == 0:
                return None
            # live > 0 with an empty batch means some calendar slot
            # holds a live handle, so the occupied-bid heap is non-empty
            # (every calendar insert pushes its bid exactly once). The
            # heap oracle never gets here: all its handles sit in _cur.
            bid = heappop(occ)
            batch = [h for h in cal.pop(bid) if h[_CALLBACK] is not None]
            if not batch:
                continue
            self._cur_bid = bid
            batch.sort()
            cur[:] = batch

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue drains (or a limit is hit).

        Parameters
        ----------
        until:
            Absolute time bound (picoseconds). Events scheduled later than
            ``until`` stay in the queue.
        max_events:
            Safety valve: stop after this many dispatches. Like
            :meth:`stop`, this ends the run *early*: the clock is left
            at the last dispatched event, **not** advanced to ``until``.

        Returns
        -------
        int
            The number of events dispatched.

        When ``until`` is given and the run ends because the bound was
        reached (rather than :meth:`stop` or ``max_events``), the clock
        is advanced to ``until`` even if later events remain queued, so
        chunked callers observe ``now == until`` after every chunk.
        Without that guarantee a chunked caller (the experiment
        runner's watchdog loop) whose next event lies beyond the chunk
        boundary would re-run the same window forever and mis-account
        stall time.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stop_requested = False
        dispatched = 0
        # Hot loop: every name it touches is a local; the profiler
        # branch is hoisted into two separate loops so the common
        # (profiler off) path reads no host clock and tests no flag.
        bound = _UNBOUNDED if until is None else until
        limit = _UNBOUNDED if max_events is None else max_events
        profiler = self.profiler
        front = self._front
        cur = self._cur
        pop = heappop
        try:
            if profiler is None:
                while not self._stop_requested:
                    if cur:
                        head = cur[0]
                        if head[2] is None:
                            head = front()
                            if head is None:
                                break
                    else:
                        head = front()
                        if head is None:
                            break
                    time = head[0]
                    if time > bound:
                        break
                    pop(cur)
                    self._live -= 1
                    self._now = time
                    callback = head[2]
                    head[2] = None
                    callback(*head[3])
                    dispatched += 1
                    if dispatched >= limit:
                        break
            else:
                record = profiler.record
                while not self._stop_requested:
                    head = front()
                    if head is None:
                        break
                    time = head[0]
                    if time > bound:
                        break
                    pop(cur)
                    self._live -= 1
                    self._now = time
                    callback = head[2]
                    head[2] = None
                    # Host wall time feeds only the profiler digest,
                    # never simulated state; the profiler-off branch
                    # reads no clock at all (locked by tests).
                    begin = perf_counter_ns()  # tdram: noqa[SIM001] -- host-side profiling only, sim state untouched
                    callback(*head[3])
                    record(callback, perf_counter_ns() - begin)  # tdram: noqa[SIM001] -- host-side profiling only, sim state untouched
                    dispatched += 1
                    if dispatched >= limit:
                        break
        finally:
            self._running = False
        # Advance to the bound unconditionally on a bounded run: a
        # pending future event must not leave ``now`` lagging ``until``,
        # or chunked callers (the runner's watchdog loop) re-run the
        # same window forever and mis-account stalls. Stop requests and
        # the max_events valve end the run *before* the bound, so they
        # leave the clock at the last dispatched event.
        if (
            until is not None
            and self._now < until
            and not self._stop_requested
            and dispatched < limit
        ):
            self._now = until
        return dispatched

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event.

        Useful when perpetual events (refresh) keep the queue non-empty
        and the caller's own completion condition ends the simulation.

        After a stop, :attr:`now` is the time of the last dispatched
        event — a stopped run never advances the clock to a pending
        ``until=`` bound (the run ended early; no simulated time beyond
        the stopping event was observed). ``max_events`` exhaustion
        behaves identically. Only a run that genuinely reaches its
        ``until`` bound snaps the clock forward to it; see :meth:`run`.
        """
        self._stop_requested = True
