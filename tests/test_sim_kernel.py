"""Unit tests for the event-driven simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import PS_PER_NS, Simulator, ns, to_ns


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
        """Events in a far calendar bucket cancel cleanly too."""
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


# Delays stay within one 16.4 ns bucket (0..4096 ps), cross bucket
# boundaries (16_384, 40_000, 100_000), and leave multi-us gaps between
# occupied buckets (2 us, 6 us).
_SPREAD_DELAYS = (0, 1, 512, 4096, 16_384, 40_000, 100_000,
                  2_000_000, 6_000_000)
# Delays that keep almost every event inside the bucket being drained or
# the next one, so most schedules and cancels hit an installed batch.
_DENSE_DELAYS = (0, 0, 1, 7, 100, 512, 1_000, 4096, 16_383, 16_384)


def _run_script(queue: str, seed: int, delay_choices=_SPREAD_DELAYS):
    """Drive one simulator through a seeded random op stream.

    The RNG decides, identically for both queue implementations, a mix
    of schedules, mid-callback reschedules, and cancellations of
    still-live handles. Returns the exact dispatch trace as
    ``(time, event_id)`` pairs.
    """
    import random

    rng = random.Random(seed)
    sim = Simulator(queue=queue)
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

    def spawn(delay):
        event_id = budget[0]
        live.append(sim.schedule(delay, fire, event_id))

    for _ in range(40):
        budget[0] -= 1
        spawn(rng.choice(delay_choices))
    sim.run()
    return trace


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_calendar_matches_reference_heap_exactly(seed):
    """The calendar queue dispatches any randomized op stream in the
    exact (time, seq) order of the reference binary heap."""
    assert _run_script("calendar", seed) == _run_script("heap", seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_matches_reference_heap_exactly(seed):
    """Under dense traffic, where most events land in the bucket being
    drained as one sorted batch, the calendar queue still dispatches in
    the exact (time, seq) order of the reference binary heap."""
    assert (_run_script("calendar", seed, _DENSE_DELAYS)
            == _run_script("heap", seed, _DENSE_DELAYS))


def test_heap_mode_rejects_unknown_queue():
    with pytest.raises(SimulationError):
        Simulator(queue="fibonacci")


def test_removed_ladder_queue_rejected_with_choices():
    with pytest.raises(SimulationError, match=r"\('calendar', 'heap'\)"):
        Simulator(queue="ladder")


class TestBatchedClockSemantics:
    """The calendar drains a whole 16.4 ns bucket as one sorted batch.
    These cases keep every event and bound inside one bucket, so the
    run(until=)/stop()/max_events contracts of TestRunControls are
    checked on a batch that a bound splits, alongside ordering, arrivals
    and cancels while the batch drains."""

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
        """Once the batch drains, the clock still moves to the bound
        inside the same bucket."""
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
        """A bound that splits one batch counts only what it dispatched."""
        sim = Simulator()
        for i in range(5):
            sim.at(1_000 * (i + 1), lambda: None)
        assert sim.run(until=2_500) == 2
        assert sim.run() == 3

    def test_same_bucket_events_fire_in_schedule_order(self):
        """A drained bucket's sorted batch must preserve (time, seq)
        FIFO order for simultaneous events — the tie-break contract."""
        sim = Simulator()
        fired = []
        for i in range(8):
            sim.at(512, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(8))

    def test_mid_drain_arrival_lands_in_current_batch(self):
        """A callback scheduling into the bucket being drained must see
        its event dispatched this drain, in exact time order."""
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
        assert sim.peek_time() == 100  # installs the bucket
        assert sim.cancel(victim)
        sim.run()
        assert fired == ["keep"]
        assert sim.cancel(keep) is False

    def test_chunked_until_inside_one_bucket(self):
        """``until`` bounds that split one bucket dispatch exactly the
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
