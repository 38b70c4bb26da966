"""Tag-store, observer and accounting fixtures.

Every design runs on the set-associative LRU :class:`TagStore`; the
committed golden digests (``tests/test_golden_runs.py``) pin each
design's full :class:`RunResult` through it, and ``TestBitIdentity``
checks that a controller builds exactly that store.
``TestHookContracts`` checks that :class:`ChannelObserver` refuses a
half-implemented subclass at construction. The remaining classes pin
LRU order, ``fill``'s single-walk stale-drop semantics and the
zero-demand breakdown convention.
"""

from __future__ import annotations

import pytest

from repro.cache.metrics import BREAKDOWN_CATEGORIES, CacheMetrics
from repro.cache.request import Outcome
from repro.cache.tagstore import TagStore
from repro.dram.monitor import ChannelObserver


# ---------------------------------------------------------------------------
# Every controller builds the plain store
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_default_organization_selects_seamed_store(self, make_system):
        from repro.cache.cascade_lake import CascadeLakeCache
        system = make_system(CascadeLakeCache)
        assert type(system.cache.tags) is TagStore


# ---------------------------------------------------------------------------
# Observers refuse half-implemented subclasses at construction
# ---------------------------------------------------------------------------
class TestHookContracts:
    HOOKS = {
        ChannelObserver: {"on_command"},
    }

    @pytest.mark.parametrize("base", list(HOOKS), ids=lambda b: b.__name__)
    def test_missing_hook_fails_at_construction(self, base):
        assert base.__abstractmethods__ == self.HOOKS[base]
        with pytest.raises(TypeError, match="abstract"):
            type("HalfImplemented", (base,), {})()


# ---------------------------------------------------------------------------
# LRU order
# ---------------------------------------------------------------------------
class TestLruPolicy:
    def test_victim_is_list_head_and_touch_moves_to_tail(self):
        tags = TagStore(8, ways=2)
        tags.install(0, dirty=False)
        tags.install(4, dirty=False)
        # Touch block 0: block 4 becomes LRU and is evicted next.
        assert tags.probe(0).outcome is Outcome.HIT_CLEAN
        evicted = tags.install(8, dirty=False)
        assert evicted == (4, False)
        assert tags.contains(0) and tags.contains(8)

    def test_direct_mapped_single_way_conflict(self):
        tags = TagStore(4, ways=1)
        tags.install(1, dirty=True)
        result = tags.probe(5)
        assert result.outcome is Outcome.MISS_DIRTY
        assert result.victim_block == 1
        assert tags.install(5, dirty=False) == (1, True)


# ---------------------------------------------------------------------------
# Satellite: fill()'s single-walk stale-drop semantics
# ---------------------------------------------------------------------------
class TestFillSemantics:
    @pytest.mark.parametrize("store_cls", [TagStore])
    def test_stale_clean_fill_dropped(self, store_cls):
        tags = store_cls(8, 2)
        # A write allocated the block (dirty) while the miss fetch was
        # in flight: the late clean fill must not clobber it.
        tags.install(3, dirty=True)
        assert tags.fill(3) is None
        assert tags.is_dirty(3)

    @pytest.mark.parametrize("store_cls", [TagStore])
    def test_fill_evicts_when_set_full(self, store_cls):
        tags = store_cls(4, 1)
        tags.install(2, dirty=True)
        assert tags.fill(6) == (2, True)
        assert tags.contains(6) and not tags.contains(2)


# ---------------------------------------------------------------------------
# Satellite: zero-demand accounting convention
# ---------------------------------------------------------------------------
class TestZeroDemandAccounting:
    def test_breakdown_empty_region_is_all_zeros(self):
        metrics = CacheMetrics()
        assert metrics.demands == 0
        assert metrics.miss_ratio == 0.0
        breakdown = metrics.breakdown()
        assert set(breakdown) == set(BREAKDOWN_CATEGORIES)
        assert all(value == 0.0 for value in breakdown.values())
