"""Unit tests for bank state machines and activation windows."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.bank import ActivationWindow, Bank
from repro.errors import ProtocolError
from repro.sim.kernel import ns


class TestBank:
    def test_reserve_advances_ready(self):
        bank = Bank(0)
        assert bank.ready_at == 0
        bank.reserve(0, ns(42))
        assert bank.ready_at == ns(42)

    def test_reserve_before_ready_rejected(self):
        bank = Bank(0)
        bank.reserve(0, ns(42))
        with pytest.raises(ProtocolError):
            bank.reserve(ns(10), ns(42))

    def test_non_positive_busy_rejected(self):
        with pytest.raises(ProtocolError):
            Bank(0).reserve(0, 0)

    def test_earliest_clamps_to_ready(self):
        """The next activate may start at ``ready_at`` or any later time."""
        bank = Bank(0)
        bank.reserve(0, ns(40))
        assert bank.reserve(ns(40), ns(40)) == ns(80)
        assert bank.reserve(ns(90), ns(40)) == ns(130)

    def test_block_until_only_extends(self):
        bank = Bank(0)
        bank.block_until(ns(100))
        bank.block_until(ns(50))
        assert bank.ready_at == ns(100)

    def test_busy_time_accumulates(self):
        bank = Bank(0)
        bank.reserve(0, ns(42))
        bank.reserve(ns(42), ns(42))
        assert bank.busy_time == ns(84)
        assert bank.accesses == 2

    def test_open_page_state_defaults(self):
        bank = Bank(3)
        assert bank.open_row == -1
        bank.open_row = 7
        bank.close_row()
        assert bank.open_row == -1

    def test_set_ready_monotone(self):
        bank = Bank(0)
        bank.set_ready(ns(10))
        bank.set_ready(ns(5))
        assert bank.ready_at == ns(10)


class TestActivationWindow:
    def test_trrd_spacing(self):
        window = ActivationWindow(ns(2), ns(16), 4)
        window.record(0)
        assert window.floor == ns(2)

    def test_four_activate_window(self):
        window = ActivationWindow(ns(2), ns(16), 4)
        for i in range(4):
            window.record(i * ns(2))
        # fifth activate must wait until the first leaves the window
        assert window.floor == ns(16)

    def test_window_slides(self):
        window = ActivationWindow(ns(2), ns(16), 4)
        times = [0, ns(2), ns(4), ns(6), ns(16), ns(18)]
        for t in times:
            assert window.floor <= t
            window.record(t)

    def test_record_out_of_order_rejected(self):
        window = ActivationWindow(ns(2), ns(16), 4)
        window.record(ns(10))
        with pytest.raises(ProtocolError):
            window.record(ns(5))

    def test_record_violating_window_rejected(self):
        window = ActivationWindow(ns(2), ns(16), 4)
        window.record(0)
        with pytest.raises(ProtocolError):
            window.record(ns(1))

    def test_single_activate_window_acts_as_trrd_only(self):
        window = ActivationWindow(ns(2), 0, 1)
        window.record(0)
        assert window.floor == ns(2)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ProtocolError):
            ActivationWindow(ns(2), ns(16), 0)


@given(st.lists(st.integers(min_value=0, max_value=ns(1000)), min_size=1,
                max_size=40))
def test_property_window_never_admits_violation(raw_times):
    """Issuing at the floor is always legal, whatever the request times."""
    window = ActivationWindow(ns(2), ns(16), 4)
    t = 0
    for req in sorted(raw_times):
        t = max(t, req, window.floor)
        window.record(t)  # must never raise
