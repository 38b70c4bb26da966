"""Event-driven simulation kernel.

Time is kept as an integer number of **picoseconds**. The paper's Table III
uses half-nanosecond granularity (e.g. ``tHM = 7.5 ns``), so picoseconds
keep every timing value exact while remaining hashable and overflow-free
for any realistic simulation length.

Scheduler design
----------------
The pending-event set is a **time-slot queue** exploiting the integer
time base and the fixed command offsets that put many events on one
instant:

* a dict maps each pending instant to its handles in scheduling order
  (its *slot*), so :meth:`Simulator.at` is one dict lookup plus one
  ``list.append``;
* a min-heap holds the distinct pending instants as plain ints; only
  the first event at a new instant pushes onto it;
* :meth:`Simulator.run` pops the earliest instant and walks its slot in
  order. An event scheduled for the instant being dispatched appends to
  that slot and runs in the same walk, so the heap is touched once per
  instant, not once per event.

Dispatch order is **exactly** the ``(time, seq)`` order of a plain
binary heap keyed by a monotonically increasing sequence number:
sequence numbers only grow, so first-in-first-out order within an
instant *is* sequence order. A randomized test locks the equivalence
against the reference heap kept in ``tests/heap_reference.py``.

Events are small mutable handles, which buys **O(1) cancellation**
(:meth:`Simulator.cancel` tombstones the handle in place; the walk
skips dead entries) and argument passing without per-event closure
allocation: ``sim.at(t, self._writeback, block)`` instead of
``sim.at(t, lambda: self._writeback(block))``.

Folded wakes
------------
:meth:`Simulator.wake` schedules a wake: an event that takes no
arguments and is never cancelled (it returns no handle). A wake whose
instant's last handle is a pending wake of the same callback folds into
that handle instead of appending one; a handle holding ``n`` wakes is a
*batch*, and the walk runs it as one call, ``callback(n)``, which must
do the work of ``n`` back-to-back wakes. The fold is exact: two adjacent
handles of one argument-free callback at one instant run back to back
with nothing between them, and folding only into an instant's last
handle never reorders anything. Events stay logical: a batch of ``n``
counts as ``n`` in :meth:`Simulator.run`'s return value, in
:meth:`Simulator.pending` and against ``max_events`` (a limit that
falls inside a batch runs only the wakes it allows and leaves the rest
queued in place), and the profiler gets ``n`` records. A single wake is
an ordinary handle with a marker, and a batch keeps ``None`` where an
ordinary handle keeps its callback, so the walk meets it on the
tombstone branch: an ordinary event's dispatch path is unchanged.

A batch differs from its unfolded wakes in two ways, both outside the
simulator's use: a :meth:`Simulator.stop` from inside a batch of two or
more wakes raises :class:`~repro.errors.SimulationError` (the unfolded
run would have stopped between them), and a batch whose callback raises
leaves none of its wakes queued. No wake stops a run today, because
every demand completion is a scheduled event of its own.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Picoseconds per nanosecond; all public timing parameters are in ns.
PS_PER_NS = 1000

#: Sentinel bound larger than any simulated time or event count (about
#: 107 simulated days); an int, so the dispatch loop's per-event limit
#: test compares int to int, which is cheaper than int to float.
_UNBOUNDED = 1 << 63

#: Handle slots: [callback, args]. ``callback`` becomes ``None`` once
#: dispatched or cancelled (the tombstone). A single wake is
#: [callback, (), _WAKE]; a batch of n folded wakes is
#: [None, args, n, callback], its ``callback`` slot ``None`` once all
#: its wakes dispatched.
_CALLBACK, _ARGS, _COUNT, _BATCH_CALLBACK = 0, 1, 2, 3

#: Last slot of a single wake, which marks it as foldable.
_WAKE = object()


def _live(handle: list) -> bool:
    """Whether ``handle`` still has an event (or wakes) to dispatch."""
    return handle[_CALLBACK] is not None or (
        len(handle) > _BATCH_CALLBACK
        and handle[_BATCH_CALLBACK] is not None)


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

    :attr:`now` is a plain attribute that only the dispatch loop (and
    a bounded :meth:`run`'s final advance) writes; callers read it and
    must never assign it.

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
    case must advance. An instant whose events were all cancelled
    dispatches nothing and never moves the clock.

    Profiling
    ---------
    :attr:`profiler` is ``None`` by default. Assign an object with a
    ``record(callback, wall_ns)`` method (e.g.
    :class:`repro.obs.profiler.KernelProfiler`) and the dispatch loop
    times every callback with the host clock; with ``None`` the loop
    reads no host clock, and dispatch order, event counts, and results
    are unchanged either way. A batch of ``n`` wakes is timed as one call
    and recorded once per wake: the first record gets the call's wall
    time, the other ``n - 1`` get 0 ns.
    """

    def __init__(self) -> None:
        #: current simulation time in picoseconds
        self.now: int = 0
        self._running = False
        self._stop_requested = False
        #: pending instant -> its handles in scheduling order
        self._slots: Dict[int, List[list]] = {}
        #: min-heap of the pending instants, each once; the instant
        #: being dispatched is popped off it while its slot is walked
        self._times: List[int] = []
        #: optional profiler with ``record(callback, wall_ns)``; set by
        #: ``run_experiment`` when ``SystemConfig.obs.profile`` is on
        self.profiler = None

    def pending(self) -> int:
        """Number of events scheduled and still due to dispatch
        (cancelled events stop counting immediately; a batch counts
        once per wake).

        Walks the live handles, so it costs O(queued events).
        """
        return sum(1 if handle[_CALLBACK] is not None else handle[_COUNT]
                   for slot in self._slots.values() for handle in slot
                   if _live(handle))

    def at(self, time: int, callback: Callable, *args: object) -> list:
        """Schedule ``callback(*args)`` at absolute ``time`` (ps).

        Returns an opaque handle accepted by :meth:`cancel`. Extra
        positional arguments are stored on the handle, so hot paths can
        schedule bound methods directly instead of allocating a closure
        per event. ``time`` must be an ``int``; convert nanoseconds
        with :func:`ns`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} ps, now is {self.now} ps"
            )
        handle = [callback, args]
        slot = self._slots.get(time)
        if slot is None:
            # Only a new instant is type-checked: an append to an
            # existing one found its key equal to an int already.
            if not isinstance(time, int):
                raise SimulationError(
                    f"event time {time!r} is not an integer number of "
                    "picoseconds; convert nanoseconds with ns()")
            self._slots[time] = [handle]
            heappush(self._times, time)
        else:
            slot.append(handle)
        return handle

    def wake(self, time: int, callback: Callable[..., object],
             count: int = 1) -> None:
        """Schedule ``count`` wakes of ``callback`` at absolute ``time``.

        A wake takes no arguments and cannot be cancelled. If the last
        handle queued at ``time`` is a pending wake of ``callback``
        (made here, never by :meth:`at`), the wakes fold into it;
        otherwise they append one handle. A single wake dispatches as
        ``callback()``, a batch of ``n`` as ``callback(n)``; see the
        module docstring.
        """
        slot = self._slots.get(time)
        if slot is None:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule event at {time} ps, now is {self.now} ps"
                )
            if not isinstance(time, int):
                raise SimulationError(
                    f"event time {time!r} is not an integer number of "
                    "picoseconds; convert nanoseconds with ns()")
            self._slots[time] = [[callback, (), _WAKE] if count == 1
                                 else [None, (), count, callback]]
            heappush(self._times, time)
            return
        # Every queued instant is at or after now, so only a new
        # instant needs the checks above. Literal indices, as in run().
        tail = slot[-1]
        first = tail[0]
        if first is None:
            if tail[-1] is callback:  # a batch with wakes left
                tail[2] += count
                return
        elif first is callback and tail[-1] is _WAKE:  # a pending wake
            tail[0] = None
            tail[2] = count + 1
            tail.append(callback)
            return
        slot.append([callback, (), _WAKE] if count == 1
                    else [None, (), count, callback])

    def schedule(self, delay: int, callback: Callable, *args: object) -> list:
        """Schedule ``callback(*args)`` after ``delay`` picoseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} ps")
        return self.at(self.now + delay, callback, *args)

    def cancel(self, handle: list) -> bool:
        """Cancel a scheduled event in O(1).

        ``handle`` is the value returned by :meth:`at`/:meth:`schedule`.
        Returns ``True`` if the event was still pending (it will now
        never fire); ``False`` if it already dispatched or was already
        cancelled. The handle is tombstoned in place and skipped by the
        dispatch loop, so cancellation never perturbs the order or
        timing of surviving events.
        """
        if handle[_CALLBACK] is None:
            return False
        handle[_CALLBACK] = None
        handle[_ARGS] = ()
        return True

    def peek_time(self) -> Optional[int]:
        """Time (ps) of the next pending event, or ``None`` if idle.

        Called from a callback, it sees the rest of the instant being
        dispatched first. Instants found holding only cancelled events
        are dropped, which is work the next :meth:`run` no longer has
        to do.
        """
        slots = self._slots
        if self._running:
            # The instant being dispatched is off the heap until its
            # walk ends; its dispatched handles are tombstones.
            for handle in slots[self.now]:
                if _live(handle):
                    return self.now
        times = self._times
        while times:
            time = times[0]
            for handle in slots[time]:
                if _live(handle):
                    return time
            heappop(times)
            del slots[time]
        return None

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue drains (or a limit is hit).

        Parameters
        ----------
        until:
            Absolute time bound (picoseconds). Events scheduled later than
            ``until`` stay in the queue.
        max_events:
            Safety valve: stop after this many dispatches (``0``
            dispatches nothing; a negative value is an error). Like
            :meth:`stop`, this ends the run *early*: the clock is left
            at the last dispatched event, **not** advanced to ``until``.

        Returns
        -------
        int
            The number of events dispatched; a batch of folded wakes
            counts once per wake.

        When ``until`` is given and the run ends because the bound was
        reached (rather than :meth:`stop` or ``max_events``), the clock
        is advanced to ``until`` even if later events remain queued, so
        chunked callers observe ``now == until`` after every chunk.
        Without that guarantee a chunked caller (the experiment
        runner's watchdog loop) whose next event lies beyond the chunk
        boundary would re-run the same window forever and mis-account
        stall time.

        A run that ends inside an instant (:meth:`stop`, ``max_events``
        or a raising callback) leaves that instant's remaining events
        queued in order; the next run dispatches each of them once. A
        ``max_events`` limit that falls inside a batch of folded wakes
        leaves the wakes it did not allow queued as that batch; a
        :meth:`stop` from a batch of two or more wakes raises
        :class:`~repro.errors.SimulationError`.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if max_events is not None and max_events < 0:
            raise SimulationError(
                f"max_events must be >= 0, got {max_events}")
        self._running = True
        self._stop_requested = False
        dispatched = 0
        # Hot loop: every name it touches is a local except ``now``
        # and the stop flag.
        bound = _UNBOUNDED if until is None else until
        limit = _UNBOUNDED if max_events is None else max_events
        record = None if self.profiler is None else self.profiler.record
        times = self._times
        slots = self._slots
        slot = None
        try:
            # A stop or the limit can only arise after a dispatch, and
            # the walk checks both there; this test serves max_events=0.
            while times and dispatched < limit:
                time = times[0]
                if time > bound:
                    break
                heappop(times)
                slot = slots[time]
                # The walk sees handles appended to ``slot`` while it
                # runs: same-instant events scheduled by a callback.
                for handle in slot:
                    callback = handle[0]
                    if callback is None:
                        # A tombstone, or a batch of folded wakes: run
                        # as many as the limit allows in one call, and
                        # leave the rest queued in place.
                        if len(handle) < 4:
                            continue
                        callback = handle[3]
                        if callback is None:
                            continue
                        count = handle[2]
                        room = limit - dispatched
                        if count > room:
                            handle[2] = count - room
                            count = room
                        else:
                            handle[3] = None
                        handle[1] = (count,)
                        dispatched += count - 1
                    else:
                        handle[0] = None
                    self.now = time
                    if record is None:
                        callback(*handle[1])
                    else:
                        # Host wall time feeds only the profiler,
                        # never simulated state.
                        begin = perf_counter_ns()
                        callback(*handle[1])
                        record(callback, perf_counter_ns() - begin)
                        if len(handle) > 3:
                            for _ in range(1, handle[1][0]):
                                record(callback, 0)
                    dispatched += 1
                    if dispatched >= limit or self._stop_requested:
                        break
                else:
                    # Walked to the end: the instant is done.
                    del slots[time]
                    slot = None
                    continue
                if (self._stop_requested and len(handle) > 3
                        and handle[1][0] > 1):
                    raise SimulationError(
                        f"stop() inside a batch of {handle[1][0]} folded "
                        f"wakes at {time} ps; a wake must not stop the run")
                break  # stopped inside the instant; see finally
        finally:
            self._running = False
            if slot is not None:
                self._requeue(time, slot)
        # Advance to the bound unconditionally on a bounded run: a
        # pending future event must not leave ``now`` lagging ``until``,
        # or chunked callers (the runner's watchdog loop) re-run the
        # same window forever and mis-account stalls. Stop requests and
        # the max_events valve end the run *before* the bound, so they
        # leave the clock at the last dispatched event.
        if (
            until is not None
            and self.now < until
            and not self._stop_requested
            and dispatched < limit
        ):
            self.now = until
        return dispatched

    def _requeue(self, time: int, slot: List[list]) -> None:
        """Put back an instant whose walk ended early.

        Everything before the first live handle was dispatched or
        cancelled, so that prefix is dropped; the rest stays queued in
        order.
        """
        done = 0
        for handle in slot:
            if _live(handle):
                break
            done += 1
        del slot[:done]
        if slot:
            heappush(self._times, time)
        else:
            del self._slots[time]

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
