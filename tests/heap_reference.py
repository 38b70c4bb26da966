"""Reference event queue: the classic binary heap, for A/B tests only.

Every event is one ``[time, seq, callback, args]`` handle on a single
``heapq`` heap, so dispatch follows ``(time, seq)`` order by plain list
comparison (``seq`` is unique). :class:`HeapSimulator` has the clock
contract of :class:`repro.sim.kernel.Simulator` and every method the
simulator's components, the runner and the tests call, and shares none
of its code, so the equivalence tests in ``tests/test_sim_kernel.py``
(random op streams, and whole runs with it swapped in for the runner's
``Simulator``) compare the production time-slot queue against an
independent implementation. Its :meth:`~HeapSimulator.wake` pushes
``count`` plain events, so the reference never folds wakes and every
batch the production queue dispatches is checked against the wakes it
stands for.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.errors import SimulationError

_UNBOUNDED = float("inf")


class HeapSimulator:
    """Drop-in stand-in for ``Simulator`` backed by one binary heap."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._heap: List[list] = []
        self._live = 0
        self._running = False
        self._stop_requested = False

    def pending(self) -> int:
        return self._live

    def at(self, time: int, callback: Callable, *args: object) -> list:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} ps, now is {self.now} ps")
        handle = [time, self._seq, callback, args]
        self._seq += 1
        self._live += 1
        heappush(self._heap, handle)
        return handle

    def wake(self, time: int, callback: Callable, count: int = 1) -> None:
        for _ in range(count):
            self.at(time, callback)

    def schedule(self, delay: int, callback: Callable, *args: object) -> list:
        if delay < 0:
            raise SimulationError(f"negative delay {delay} ps")
        return self.at(self.now + delay, callback, *args)

    def cancel(self, handle: list) -> bool:
        if handle[2] is None:
            return False
        handle[2] = None
        self._live -= 1
        return True

    def _head(self) -> Optional[list]:
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        return heap[0] if heap else None

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        self._running = True
        self._stop_requested = False
        bound = _UNBOUNDED if until is None else until
        limit = _UNBOUNDED if max_events is None else max_events
        dispatched = 0
        try:
            while dispatched < limit and not self._stop_requested:
                head = self._head()
                if head is None or head[0] > bound:
                    break
                heappop(self._heap)
                self._live -= 1
                self.now = head[0]
                callback, args = head[2], head[3]
                head[2] = None
                callback(*args)
                dispatched += 1
        finally:
            self._running = False
        if (until is not None and self.now < until
                and not self._stop_requested and dispatched < limit):
            self.now = until
        return dispatched

    def stop(self) -> None:
        self._stop_requested = True
