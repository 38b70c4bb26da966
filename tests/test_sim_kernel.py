"""Unit tests for the event-driven simulation kernel."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.experiments import runner
from repro.experiments.runner import run_experiment
from repro.sim.kernel import PS_PER_NS, Simulator, ns, to_ns
from tests.heap_reference import HeapSimulator


class TestTimeConversion:
    def test_ns_converts_to_picoseconds(self):
        assert ns(1) == 1000
        assert ns(7.5) == 7500
        assert ns(0.5) == 500

    def test_to_ns_inverts_ns(self):
        assert to_ns(ns(12.5)) == 12.5

    def test_ps_per_ns_constant(self):
        assert PS_PER_NS == 1000

    @given(st.floats(min_value=0, max_value=1e6))
    def test_roundtrip_within_half_picosecond(self, value):
        assert abs(to_ns(ns(value)) - value) <= 0.0005


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(ns(30), lambda: fired.append("c"))
        sim.schedule(ns(10), lambda: fired.append("a"))
        sim.schedule(ns(20), lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(ns(5), lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(ns(42), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [ns(42)]
        assert sim.now == ns(42)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []
        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(ns(5), lambda: fired.append(("inner", sim.now)))
        sim.schedule(ns(10), outer)
        sim.run()
        assert fired == [("outer", ns(10)), ("inner", ns(15))]

    def test_at_schedules_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(ns(100), lambda: fired.append(sim.now))
        sim.run()
        assert fired == [ns(100)]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(ns(10), lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(ns(5), lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_float_time_rejected_by_at(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"5\.5.*ns\(\)"):
            sim.at(5.5, lambda: None)
        assert sim.pending() == 0 and sim.peek_time() is None

    def test_float_delay_rejected_by_schedule(self):
        sim = Simulator()
        sim.run(until=1_000)
        with pytest.raises(SimulationError, match=r"1002\.5.*ns\(\)"):
            sim.schedule(2.5, lambda: None)
        assert sim.pending() == 0


class TestRunControls:
    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(ns(10), lambda: fired.append("early"))
        sim.schedule(ns(100), lambda: fired.append("late"))
        sim.run(until=ns(50))
        assert fired == ["early"]
        assert sim.pending() == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_fast_forwards_empty_queue(self):
        sim = Simulator()
        sim.run(until=ns(500))
        assert sim.now == ns(500)

    def test_run_until_advances_clock_past_pending_event(self):
        """Chunked regression: a queued future event must not hold the
        clock below the bound (it used to, skewing stall accounting)."""
        sim = Simulator()
        fired = []
        sim.schedule(ns(1000), lambda: fired.append(sim.now))
        sim.run(until=ns(100))
        assert fired == []
        assert sim.pending() == 1
        assert sim.now == ns(100)

    def test_chunked_runs_reach_a_far_event_at_its_exact_time(self):
        """Watchdog-style chunking makes steady progress and dispatches
        the far event exactly when its time falls inside a chunk."""
        sim = Simulator()
        fired = []
        sim.schedule(ns(1000), lambda: fired.append(sim.now))
        chunk = ns(100)
        for _ in range(10):
            sim.run(until=sim.now + chunk)
        assert fired == [ns(1000)]
        assert sim.now == ns(1000)

    def test_run_until_advances_after_draining_early_events(self):
        """Drained regression: events before the bound fire, then the
        clock still lands on the bound itself."""
        sim = Simulator()
        fired = []
        sim.schedule(ns(10), lambda: fired.append(sim.now))
        sim.run(until=ns(50))
        assert fired == [ns(10)]
        assert sim.pending() == 0
        assert sim.now == ns(50)

    def test_stop_does_not_advance_clock_to_bound(self):
        sim = Simulator()
        sim.schedule(ns(1), sim.stop)
        sim.schedule(ns(100), lambda: None)
        sim.run(until=ns(50))
        assert sim.now == ns(1)

    def test_max_events_does_not_advance_clock_to_bound(self):
        sim = Simulator()
        sim.schedule(ns(1), lambda: None)
        sim.schedule(ns(2), lambda: None)
        sim.run(until=ns(50), max_events=1)
        assert sim.now == ns(1)

    def test_events_scheduled_relative_to_advanced_clock(self):
        """After a bounded run, schedule() is relative to the bound."""
        sim = Simulator()
        fired = []
        sim.run(until=ns(100))
        sim.schedule(ns(5), lambda: fired.append(sim.now))
        sim.run()
        assert fired == [ns(105)]

    def test_max_events_limits_dispatch(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(ns(i + 1), lambda i=i: fired.append(i))
        dispatched = sim.run(max_events=3)
        assert dispatched == 3
        assert fired == [0, 1, 2]

    def test_max_events_zero_dispatches_nothing(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: fired.append(sim.now))
        assert sim.run(max_events=0) == 0
        assert fired == [] and sim.pending() == 1 and sim.now == 0
        assert sim.run(until=10, max_events=0) == 0
        assert sim.now == 0
        assert sim.run() == 1
        assert fired == [5]

    def test_negative_max_events_raises(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=-1)
        assert fired == [] and sim.pending() == 1
        assert sim.run() == 1

    def test_stop_breaks_run_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(ns(1), lambda: (fired.append(1), sim.stop()))
        sim.schedule(ns(2), lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.pending() == 1

    def test_run_returns_dispatch_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(ns(i + 1), lambda: None)
        assert sim.run() == 5

    def test_reentrant_run_raises(self):
        sim = Simulator()
        def bad():
            sim.run()
        sim.schedule(ns(1), bad)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancel:
    def test_cancel_prevents_dispatch(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(ns(10), lambda: fired.append("no"))
        sim.schedule(ns(20), lambda: fired.append("yes"))
        assert sim.cancel(handle) is True
        sim.run()
        assert fired == ["yes"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(ns(10), lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False

    def test_cancel_after_dispatch_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(ns(10), lambda: None)
        sim.run()
        assert sim.cancel(handle) is False

    def test_cancel_updates_pending_immediately(self):
        sim = Simulator()
        handles = [sim.schedule(ns(i + 1), lambda: None) for i in range(4)]
        assert sim.pending() == 4
        sim.cancel(handles[2])
        assert sim.pending() == 3

    def test_cancel_far_future_event(self):
        """Events at a far instant cancel cleanly too."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(ns(1_000_000), lambda: fired.append("far"))
        sim.schedule(ns(2_000_000), lambda: fired.append("farther"))
        sim.cancel(handle)
        sim.run()
        assert fired == ["farther"]

    def test_cancel_does_not_perturb_survivors(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(20):
            handle = sim.schedule(ns(i + 1), lambda i=i: fired.append(i))
            if i % 3 != 0:
                keep.append(i)
            else:
                sim.cancel(handle)
        sim.run()
        assert fired == keep

    def test_peek_time_skips_cancelled_head(self):
        sim = Simulator()
        head = sim.schedule(ns(5), lambda: None)
        sim.schedule(ns(9), lambda: None)
        assert sim.peek_time() == ns(5)
        sim.cancel(head)
        assert sim.peek_time() == ns(9)

    def test_peek_time_empty_queue(self):
        assert Simulator().peek_time() is None


# Delays that repeat an instant (0), stay within a few ns, and leave
# gaps of tens of ns and multi-us between pending instants.
_SPREAD_DELAYS = (0, 1, 512, 4096, 16_384, 40_000, 100_000,
                  2_000_000, 6_000_000)
# Delays that keep almost every event on the instant being dispatched
# or a few ps ahead, so most schedules and cancels hit a slot in use.
_DENSE_DELAYS = (0, 0, 1, 7, 100, 512, 1_000, 4096, 16_383, 16_384)


def _run_script(make_sim, seed: int, delay_choices=_SPREAD_DELAYS,
                split: bool = False):
    """Drive one simulator through a seeded random op stream.

    The RNG decides, identically for both queue implementations, a mix
    of schedules, mid-callback reschedules, and cancellations of
    still-live handles. With ``split``, the stream runs as a series of
    short runs ended by random ``max_events`` limits, ``until`` bounds
    and mid-callback ``stop()`` calls, so runs end inside instants.
    Returns the exact dispatch trace as ``(time, event_id)`` pairs, with
    ``("run", dispatched, now, pending)`` after each run when split.
    """
    import random

    rng = random.Random(seed)
    sim = make_sim()
    trace = []
    live = []
    budget = [200]

    def fire(event_id):
        trace.append((sim.now, event_id))
        roll = rng.random()
        if roll < 0.5 and budget[0] > 0:
            budget[0] -= 1
            spawn(rng.choice(delay_choices))
        if roll > 0.7 and live:
            victim = live.pop(rng.randrange(len(live)))
            sim.cancel(victim)
        if split and roll < 0.05:
            sim.stop()

    def spawn(delay):
        event_id = budget[0]
        live.append(sim.schedule(delay, fire, event_id))

    for _ in range(40):
        budget[0] -= 1
        spawn(rng.choice(delay_choices))
    if not split:
        sim.run()
        return trace
    while sim.pending():
        until = sim.now + rng.choice(delay_choices) if rng.random() < 0.3 else None
        dispatched = sim.run(until=until, max_events=rng.randrange(8))
        trace.append(("run", dispatched, sim.now, sim.pending()))
    return trace


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_slots_match_reference_heap_exactly(seed):
    """The time-slot queue dispatches any randomized op stream in the
    exact (time, seq) order of the reference binary heap."""
    assert _run_script(Simulator, seed) == _run_script(HeapSimulator, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_same_instant_slots_match_reference_heap_exactly(seed):
    """Under dense traffic, where most events join the instant being
    dispatched or one a few ps ahead, the time-slot queue still
    dispatches in the exact (time, seq) order of the reference binary
    heap."""
    assert (_run_script(Simulator, seed, _DENSE_DELAYS)
            == _run_script(HeapSimulator, seed, _DENSE_DELAYS))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_split_runs_match_reference_heap_exactly(seed):
    """Runs cut short inside an instant (``max_events``, ``stop()``) or
    at an ``until`` bound resume exactly where the reference binary
    heap does: same dispatches, same counts, same clock, same backlog."""
    assert (_run_script(Simulator, seed, _DENSE_DELAYS, split=True)
            == _run_script(HeapSimulator, seed, _DENSE_DELAYS, split=True))


def _run_wake_script(make_sim, seed: int, split: bool = False,
                     batches=None):
    """Drive one simulator through a seeded random stream of wakes
    mixed with events and cancels, on the dense delays.

    Three wake callbacks take the number of wakes they stand for (always
    1 under the reference heap, which never folds) and do the work of
    that many wakes in order, so both queues see the same logical wakes
    and the same RNG draws. Each wake or event may schedule an event or
    a run of wakes of one callback (one ``wake`` call with ``count`` up
    to 3, or up to three calls in a row), or cancel a live event. With
    ``split``, runs end at random ``max_events`` limits (often inside a
    batch), ``until`` bounds and ``stop()`` calls from events; a stop
    from a batch would raise. Each callback's ``count`` is appended to
    ``batches`` when given. Returns the trace as :func:`_run_script`
    does, wakes logged per wake.
    """
    import random

    rng = random.Random(seed)
    sim = make_sim()
    trace = []
    live = []
    budget = [200]

    def act(tag):
        trace.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.6 and budget[0] > 0:
            budget[0] -= 1
            spawn()
        if roll > 0.8 and live:
            sim.cancel(live.pop(rng.randrange(len(live))))
        return roll

    def fire(event_id):
        if act(event_id) < 0.05 and split:
            sim.stop()

    def waker(name):
        def woke(count=1):
            if batches is not None:
                batches.append(count)
            for _ in range(count):
                act(name)
        return woke

    wakers = [waker(name) for name in ("w0", "w1", "w2")]

    def spawn():
        delay = rng.choice(_DENSE_DELAYS)
        if rng.random() < 0.4:
            live.append(sim.schedule(delay, fire, budget[0]))
            return
        callback = rng.choice(wakers)
        if rng.random() < 0.5:
            sim.wake(sim.now + delay, callback, rng.choice((1, 2, 3)))
        else:
            for _ in range(rng.choice((1, 2, 3))):
                sim.wake(sim.now + delay, callback)

    for _ in range(40):
        budget[0] -= 1
        spawn()
    if not split:
        trace.append(("run", sim.run(), sim.now, sim.pending()))
        return trace
    while sim.pending():
        until = sim.now + rng.choice(_DENSE_DELAYS) if rng.random() < 0.3 else None
        dispatched = sim.run(until=until, max_events=rng.randrange(8))
        trace.append(("run", dispatched, sim.now, sim.pending()))
    return trace


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([False, True]))
def test_folded_wakes_match_reference_heap_exactly(seed, split):
    """Wakes folded into batches dispatch, count and split exactly like
    the reference heap's unfolded wakes, whole runs and runs cut short
    inside a batch alike."""
    assert (_run_wake_script(Simulator, seed, split)
            == _run_wake_script(HeapSimulator, seed, split))


def test_wake_stream_makes_batches():
    """The fold stream above does fold: some of its callbacks run a
    batch, whole and split by a limit."""
    for split in (False, True):
        batches = []
        _run_wake_script(Simulator, 3, split, batches)
        assert max(batches) > 1 and batches.count(1) > 0


class TestFoldedWakes:
    """The kernel's fold contract for :meth:`Simulator.wake`."""

    @staticmethod
    def waker(sim, calls, then=None):
        def woke(count=1):
            calls.append((sim.now, count))
            if then is not None:
                then()
        return woke

    def test_two_wakes_at_one_instant_make_one_batch(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls)
        sim.wake(5, woke)
        sim.wake(5, woke)
        assert sim.pending() == 2
        assert sim.run() == 2
        assert calls == [(5, 2)]

    def test_count_folds_like_repeated_wakes(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls)
        sim.wake(5, woke, 3)
        sim.wake(5, woke)
        sim.wake(7, woke, 2)
        assert sim.pending() == 6
        assert sim.run() == 6
        assert calls == [(5, 4), (7, 2)]

    def test_single_wake_runs_without_a_count(self):
        sim = Simulator()
        seen = []
        sim.wake(5, lambda *args: seen.append(args))
        assert sim.run() == 1
        assert seen == [()]

    def test_event_between_wakes_stops_the_fold(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls)
        sim.wake(5, woke)
        sim.at(5, lambda: calls.append("event"))
        sim.wake(5, woke)
        assert sim.run() == 3
        assert calls == [(5, 1), "event", (5, 1)]

    def test_wakes_of_two_callbacks_do_not_fold(self):
        sim = Simulator()
        calls = []
        first, second = self.waker(sim, calls), self.waker(sim, calls)
        sim.wake(5, first)
        sim.wake(5, second)
        sim.wake(5, second)
        assert sim.run() == 3
        assert calls == [(5, 1), (5, 2)]

    def test_wake_never_folds_into_an_at_handle(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls)
        handle = sim.at(5, woke)
        sim.wake(5, woke)
        assert sim.cancel(handle) is True
        assert sim.pending() == 1
        assert sim.run() == 1
        assert calls == [(5, 1)]

    def test_wake_from_a_batch_at_its_instant_runs_after_it(self):
        """The batch being dispatched is no longer pending, so a wake it
        schedules at its own instant starts a new handle behind the
        events already queued there."""
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls,
                          then=lambda: len(calls) == 1 and sim.wake(5, woke))
        sim.wake(5, woke)
        sim.wake(5, woke)
        sim.at(5, lambda: calls.append("event"))
        assert sim.run() == 4
        assert calls == [(5, 2), "event", (5, 1)]

    def test_max_events_inside_a_batch_leaves_the_rest_in_place(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls)
        sim.wake(5, woke, 3)
        sim.at(5, lambda: calls.append("event"))
        assert sim.run(max_events=2) == 2
        assert calls == [(5, 2)]
        assert sim.now == 5 and sim.pending() == 2
        sim.wake(9, woke)
        assert sim.run(max_events=1) == 1
        assert calls == [(5, 2), (5, 1)]
        assert sim.run() == 2
        assert calls == [(5, 2), (5, 1), "event", (9, 1)]

    def test_wake_folds_into_the_rest_of_a_split_batch(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls)
        sim.wake(5, woke, 3)
        assert sim.run(max_events=1) == 1
        sim.wake(5, woke)
        assert sim.pending() == 3
        assert sim.run() == 3
        assert calls == [(5, 1), (5, 3)]

    def test_stop_inside_a_batch_raises(self):
        sim = Simulator()
        woke = self.waker(sim, [], then=sim.stop)
        sim.wake(5, woke)
        sim.wake(5, woke)
        with pytest.raises(SimulationError, match="batch of 2"):
            sim.run()

    def test_stop_inside_a_single_wake_stops(self):
        sim = Simulator()
        calls = []
        woke = self.waker(sim, calls, then=sim.stop)
        sim.wake(5, woke)
        sim.at(5, lambda: calls.append("event"))
        assert sim.run() == 1
        assert calls == [(5, 1)] and sim.pending() == 1

    def test_profiler_records_once_per_wake(self):
        records = []

        class Profiler:
            def record(self, callback, wall_ns):
                records.append((callback, wall_ns))

        sim = Simulator()
        sim.profiler = Profiler()
        woke = self.waker(sim, [])
        sim.wake(5, woke, 3)
        sim.wake(7, woke)
        assert sim.run() == 4
        assert [callback for callback, _ in records] == [woke] * 4
        walls = [wall for _, wall in records]
        assert walls[0] > 0 and walls[1:3] == [0, 0] and walls[3] > 0

    def test_wake_in_the_past_raises(self):
        sim = Simulator()
        sim.run(until=10)
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.wake(5, lambda: None)

    def test_wake_at_float_time_raises(self):
        with pytest.raises(SimulationError, match="ns()"):
            Simulator().wake(5.0, lambda: None)


class TestHeapOracleBitIdentity:
    """A whole-run ``asdict`` A/B of the production time-slot queue
    against the reference binary heap, swapped in for the runner's
    ``Simulator``: every RunResult field, recursively, for the paper's
    headline designs, and on the cells where most wakes fold."""

    @pytest.mark.parametrize("design", ["tdram", "cascade_lake", "alloy"])
    def test_whole_run_asdict_identical(self, design, monkeypatch):
        kwargs = dict(config=SystemConfig.small(), demands_per_core=150,
                      seed=11)
        slots = run_experiment(design, "bfs.22", **kwargs)
        monkeypatch.setattr(runner, "Simulator", HeapSimulator)
        heap = run_experiment(design, "bfs.22", **kwargs)
        assert dataclasses.asdict(slots) == dataclasses.asdict(heap)

    @pytest.mark.parametrize("cell", [("no_cache", "lu.C"),
                                      ("cascade_lake", "write_storm"),
                                      ("tdram", "write_storm")],
                             ids="/".join)
    def test_folding_run_asdict_identical(self, cell, monkeypatch):
        """77-87 % of these cells' events are wakes folded into a
        batch; a batch must do exactly the work of its wakes."""
        design, name = cell
        kwargs = dict(config=SystemConfig.small(), demands_per_core=600,
                      seed=7)
        slots = run_experiment(design, name, **kwargs)
        monkeypatch.setattr(runner, "Simulator", HeapSimulator)
        heap = run_experiment(design, name, **kwargs)
        assert dataclasses.asdict(slots) == dataclasses.asdict(heap)


class TestBatchedClockSemantics:
    """Events a few ns apart, with bounds between them.

    The cases date from a bucketed queue, where all of these events
    shared one 16.4 ns bucket drained as one batch; they keep their
    names. Under time slots they check the run(until=)/stop()/max_events
    contracts of TestRunControls on closely spaced instants, alongside
    same-instant order, arrivals and cancels while a run is in
    progress."""

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.at(1_000, lambda: fired.append("early"))
        sim.at(10_000, lambda: fired.append("late"))
        sim.run(until=5_000)
        assert fired == ["early"]
        assert sim.pending() == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_fast_forwards_empty_queue(self):
        """Once the queue drains, the clock still moves to a bound
        only a few ns later."""
        sim = Simulator()
        sim.at(1_000, lambda: None)
        sim.run(until=5_000)
        assert sim.pending() == 0
        assert sim.now == 5_000

    def test_run_until_advances_clock_past_pending_event(self):
        sim = Simulator()
        fired = []
        sim.at(12_000, lambda: fired.append(sim.now))
        sim.run(until=3_000)
        assert fired == []
        assert sim.pending() == 1
        assert sim.now == 3_000
        sim.run()
        assert fired == [12_000]

    def test_chunked_runs_reach_a_far_event_at_its_exact_time(self):
        sim = Simulator()
        fired = []
        sim.at(15_000, lambda: fired.append(sim.now))
        for _ in range(15):
            sim.run(until=sim.now + 1_000)
        assert fired == [15_000]
        assert sim.now == 15_000

    def test_stop_does_not_advance_clock_to_bound(self):
        sim = Simulator()
        sim.at(1_000, sim.stop)
        sim.at(9_000, lambda: None)
        sim.run(until=5_000)
        assert sim.now == 1_000
        assert sim.pending() == 1

    def test_max_events_does_not_advance_clock_to_bound(self):
        sim = Simulator()
        sim.at(1_000, lambda: None)
        sim.at(2_000, lambda: None)
        sim.run(until=5_000, max_events=1)
        assert sim.now == 1_000
        assert sim.pending() == 1

    def test_run_batched_returns_dispatch_count(self):
        """A bound between close instants counts only what it
        dispatched."""
        sim = Simulator()
        for i in range(5):
            sim.at(1_000 * (i + 1), lambda: None)
        assert sim.run(until=2_500) == 2
        assert sim.run() == 3

    def test_same_bucket_events_fire_in_schedule_order(self):
        """An instant's slot must preserve (time, seq) FIFO order for
        simultaneous events — the tie-break contract."""
        sim = Simulator()
        fired = []
        for i in range(8):
            sim.at(512, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(8))

    def test_mid_drain_arrival_lands_in_current_batch(self):
        """A callback scheduling a few ns ahead must see its event
        dispatched in this run, in exact time order."""
        sim = Simulator()
        fired = []
        sim.at(100, lambda: (fired.append("a"),
                             sim.at(200, lambda: fired.append("b"))))
        sim.at(300, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_cancel_inside_installed_batch(self):
        sim = Simulator()
        fired = []
        keep = sim.at(100, lambda: fired.append("keep"))
        victim = sim.at(200, lambda: fired.append("victim"))
        assert sim.peek_time() == 100  # a peek leaves both queued
        assert sim.cancel(victim)
        sim.run()
        assert fired == ["keep"]
        assert sim.cancel(keep) is False

    def test_chunked_until_inside_one_bucket(self):
        """``until`` bounds between close instants dispatch exactly the
        events at or before each bound, and a later arrival scheduled
        between chunks still fires in time order."""
        sim = Simulator()
        fired = []
        for t in (1_000, 5_000, 9_000, 13_000):
            sim.at(t, lambda: fired.append(sim.now))
        sim.run(until=4_000)
        assert fired == [1_000] and sim.now == 4_000
        sim.at(7_000, lambda: fired.append(sim.now))
        sim.run(until=10_000)
        assert fired == [1_000, 5_000, 7_000, 9_000]
        assert sim.now == 10_000
        sim.run()
        assert fired == [1_000, 5_000, 7_000, 9_000, 13_000]


class TestInstantSlotContract:
    """Dispatch walks each instant's slot in scheduling order. These
    cases pin what a slot walk must keep of the (time, seq) heap
    contract, including the ones a naive walk gets wrong."""

    def test_cancelled_last_instant_does_not_move_clock(self):
        """An instant whose events were all cancelled dispatches
        nothing, so it must not move the clock (a walk that sets
        ``now`` before skipping dead handles ends at 7)."""
        sim = Simulator()
        sim.at(5, lambda: None)
        sim.cancel(sim.at(7, lambda: None))
        assert sim.run() == 1
        assert sim.now == 5

    def test_zero_delay_schedule_runs_after_the_instants_earlier_events(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: (fired.append("a"),
                           sim.schedule(0, lambda: fired.append("c"))))
        sim.at(5, lambda: fired.append("b"))
        sim.at(6, lambda: fired.append("d"))
        assert sim.run() == 4
        assert fired == ["a", "b", "c", "d"]

    def test_stop_mid_instant_keeps_the_rest_queued_in_order(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: fired.append(0))
        sim.at(5, lambda: (fired.append(1), sim.stop()))
        sim.at(5, lambda: fired.append(2))
        sim.at(5, lambda: fired.append(3))
        sim.at(8, lambda: fired.append(4))
        assert sim.run(until=50) == 2
        assert fired == [0, 1] and sim.now == 5 and sim.pending() == 3
        assert sim.peek_time() == 5
        assert sim.run() == 3
        assert fired == [0, 1, 2, 3, 4]

    def test_max_events_mid_instant_keeps_the_rest_queued_in_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.at(5, lambda i=i: fired.append(i))
        assert sim.run(max_events=2) == 2
        assert sim.pending() == 3
        sim.at(5, lambda: fired.append(5))
        assert sim.run(max_events=2) == 2
        assert sim.run() == 2
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5 and sim.pending() == 0

    def test_raise_mid_instant_then_run_dispatches_the_rest_once(self):
        sim = Simulator()
        fired = []

        def boom():
            fired.append("boom")
            raise RuntimeError("callback failed")

        sim.at(5, lambda: fired.append(0))
        sim.at(5, boom)
        sim.at(5, lambda: fired.append(2))
        sim.at(9, lambda: fired.append(3))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.now == 5 and sim.pending() == 2
        assert sim.run() == 2
        assert fired == [0, "boom", 2, 3]
        assert sim.run() == 0

    def test_cancel_later_handle_of_the_instant_being_dispatched(self):
        sim = Simulator()
        fired = []
        handles = {}
        sim.at(5, lambda: (fired.append("a"), sim.cancel(handles["b"])))
        handles["b"] = sim.at(5, lambda: fired.append("b"))
        sim.at(5, lambda: fired.append("c"))
        assert sim.run() == 2
        assert fired == ["a", "c"]
        assert sim.cancel(handles["b"]) is False

    def test_peek_time_in_callback_sees_the_rest_of_its_instant(self):
        sim = Simulator()
        peeks = []
        sim.at(5, lambda: peeks.append(sim.peek_time()))
        sim.at(5, lambda: peeks.append(sim.peek_time()))
        sim.at(9, lambda: peeks.append(sim.peek_time()))
        assert sim.run() == 3
        assert peeks == [5, 9, None]

    def test_peek_time_in_callback_keeps_the_instant_being_dispatched(self):
        """A peek that finds nothing live left on the current instant
        must not drop that instant: a same-instant event scheduled
        after the peek still runs, once, before later instants."""
        sim = Simulator()
        fired = []
        handles = {}

        def first():
            fired.append("a")
            sim.cancel(handles["b"])
            fired.append(("peek", sim.peek_time()))
            sim.schedule(0, lambda: fired.append("c"))

        sim.at(5, first)
        handles["b"] = sim.at(5, lambda: fired.append("b"))
        sim.at(9, lambda: fired.append("d"))
        assert sim.run() == 3
        assert fired == ["a", ("peek", 9), "c", "d"]
        assert sim.pending() == 0 and sim.peek_time() is None


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_property_dispatch_order_is_sorted(delays):
    """Whatever the insertion order, dispatch times are nondecreasing."""
    sim = Simulator()
    seen = []
    for delay in delays:
        sim.schedule(delay, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
