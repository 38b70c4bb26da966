"""Unit and property tests for the functional tag store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.request import Outcome
from repro.cache.tagstore import LookupResult, TagStore
from repro.errors import ConfigError


class TestDirectMapped:
    def make(self):
        return TagStore(num_frames=64, ways=1)

    def test_empty_store_misses_invalid(self):
        store = self.make()
        result = store.probe(5)
        assert result.outcome is Outcome.MISS_INVALID
        assert result.victim_block is None

    def test_install_then_hit_clean(self):
        store = self.make()
        assert store.install(5, dirty=False) is None
        assert store.probe(5).outcome is Outcome.HIT_CLEAN

    def test_install_dirty_then_hit_dirty(self):
        store = self.make()
        store.install(5, dirty=True)
        assert store.probe(5).outcome is Outcome.HIT_DIRTY
        assert store.is_dirty(5)

    def test_conflicting_block_sees_miss_clean(self):
        store = self.make()
        store.install(5, dirty=False)
        result = store.probe(5 + 64)  # same frame, different tag
        assert result.outcome is Outcome.MISS_CLEAN
        assert result.victim_block == 5
        assert result.victim_dirty is False

    def test_conflicting_dirty_block_sees_miss_dirty(self):
        store = self.make()
        store.install(5, dirty=True)
        result = store.probe(5 + 64)
        assert result.outcome is Outcome.MISS_DIRTY
        assert result.victim_block == 5
        assert result.victim_dirty is True

    def test_install_evicts_conflicting_line(self):
        store = self.make()
        store.install(5, dirty=True)
        evicted = store.install(5 + 64, dirty=False)
        assert evicted == (5, True)
        assert not store.contains(5)
        assert store.contains(5 + 64)

    def test_rewrite_same_block_keeps_dirty(self):
        store = self.make()
        store.install(5, dirty=True)
        assert store.install(5, dirty=False) is None
        assert store.is_dirty(5)

    def test_fill_installs_clean(self):
        store = self.make()
        assert store.fill(9) is None
        assert store.probe(9).outcome is Outcome.HIT_CLEAN

    def test_fill_dropped_when_block_already_present(self):
        """A racing write must not be downgraded by a stale clean fill."""
        store = self.make()
        store.install(9, dirty=True)
        assert store.fill(9) is None
        assert store.is_dirty(9)

    def test_fill_evicts_conflicting_line(self):
        store = self.make()
        store.install(9, dirty=True)
        evicted = store.fill(9 + 64)
        assert evicted == (9, True)

    def test_fill_into_full_set_drops_the_victim(self):
        tags = TagStore(4, 1)
        tags.install(2, dirty=True)
        assert tags.fill(6) == (2, True)
        assert tags.contains(6) and not tags.contains(2)

    def test_dirty_conflict_names_victim_and_is_evicted(self):
        tags = TagStore(4, ways=1)
        tags.install(1, dirty=True)
        result = tags.probe(5)
        assert result.outcome is Outcome.MISS_DIRTY
        assert result.victim_block == 1
        assert tags.install(5, dirty=False) == (1, True)

    def test_invalidate(self):
        store = self.make()
        store.install(3, dirty=False)
        assert store.invalidate(3)
        assert not store.invalidate(3)
        assert store.probe(3).outcome is Outcome.MISS_INVALID

    def test_resident_blocks_counts(self):
        store = self.make()
        for block in range(10):
            store.install(block, dirty=False)
        assert store.resident_blocks() == 10


class TestSetAssociative:
    def test_ways_must_divide_frames(self):
        with pytest.raises(ConfigError):
            TagStore(num_frames=64, ways=3)
        with pytest.raises(ConfigError):
            TagStore(num_frames=64, ways=0)
        with pytest.raises(ConfigError):
            TagStore(num_frames=64, ways=-1)

    def test_ways_fill_before_eviction(self):
        store = TagStore(num_frames=64, ways=4)  # 16 sets
        blocks = [0, 16, 32, 48]  # all map to set 0
        for block in blocks:
            assert store.install(block, dirty=False) is None
        for block in blocks:
            assert store.contains(block)

    def test_lru_eviction_order(self):
        store = TagStore(num_frames=64, ways=2)  # 32 sets
        store.install(0, dirty=False)
        store.install(32, dirty=False)
        store.probe(0)                     # touch 0 -> 32 becomes LRU
        evicted = store.install(64, dirty=False)
        assert evicted == (32, False)
        assert store.contains(0)

    def test_probe_without_touch_preserves_lru(self):
        store = TagStore(num_frames=64, ways=2)
        store.install(0, dirty=False)
        store.install(32, dirty=False)
        store.probe(0, touch=False)        # no LRU movement
        evicted = store.install(64, dirty=False)
        assert evicted == (0, False)

    def test_victim_is_lru_way(self):
        store = TagStore(num_frames=64, ways=2)
        store.install(0, dirty=True)
        store.install(32, dirty=False)
        result = store.probe(64)
        assert result.outcome is Outcome.MISS_DIRTY
        assert result.victim_block == 0

    def test_probe_hit_protects_block_from_eviction(self):
        tags = TagStore(8, ways=2)
        tags.install(0, dirty=False)
        tags.install(4, dirty=False)
        # Touch block 0: block 4 becomes LRU and is evicted next.
        assert tags.probe(0).outcome is Outcome.HIT_CLEAN
        evicted = tags.install(8, dirty=False)
        assert evicted == (4, False)
        assert tags.contains(0) and tags.contains(8)

    def test_late_clean_fill_keeps_dirty_line(self):
        tags = TagStore(8, 2)
        # A write allocated the block (dirty) while the miss fetch was
        # in flight: the late clean fill must not clobber it.
        tags.install(3, dirty=True)
        assert tags.fill(3) is None
        assert tags.is_dirty(3)


def test_controller_builds_plain_tag_store(make_system):
    from repro.cache.cascade_lake import CascadeLakeCache
    system = make_system(CascadeLakeCache)
    assert type(system.cache.tags) is TagStore


class TestBulkInstall:
    def test_bulk_matches_sequential_install(self):
        a = TagStore(num_frames=128, ways=1)
        b = TagStore(num_frames=128, ways=1)
        blocks = list(range(200))
        dirty = [block % 3 == 0 for block in blocks]
        for block, d in zip(blocks, dirty):
            a.install(block, dirty=d)
        b.bulk_install(blocks, dirty)
        for block in blocks:
            assert a.contains(block) == b.contains(block)
            if a.contains(block):
                assert a.is_dirty(block) == b.is_dirty(block)

    def test_bulk_install_respects_capacity(self):
        store = TagStore(num_frames=16, ways=1)
        store.bulk_install(range(100), [False] * 100)
        assert store.resident_blocks() <= 16


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["read", "write", "invalidate"]),
                  st.integers(min_value=0, max_value=255)),
        max_size=100,
    ),
    ways=st.sampled_from([1, 2, 4]),
)
def test_property_tagstore_invariants(ops, ways):
    """Occupancy bounds and probe/contains consistency under any op mix."""
    store = TagStore(num_frames=32, ways=ways)
    for op, block in ops:
        if op == "read":
            result = store.probe(block)
            assert result.outcome.is_hit == store.contains(block)
            if not result.outcome.is_hit:
                store.fill(block)
        elif op == "write":
            store.install(block, dirty=True)
            assert store.is_dirty(block)
        else:
            store.invalidate(block)
        assert store.resident_blocks() <= 32
        # No set exceeds its associativity.
        for lines in store._sets.values():
            assert len(lines) <= ways
            blocks = [line.block for line in lines]
            assert len(set(blocks)) == len(blocks)  # no duplicates


class TestSharedResults:
    """Probes that name no victim and pay no ECC penalty return shared
    results; they must be immutable and equal to freshly built ones."""

    def probes(self):
        store = TagStore(num_frames=64, ways=1)
        miss = store.probe(5)
        store.install(5, dirty=False)
        clean = store.probe(5)
        store.install(6, dirty=True)
        dirty = store.probe(6)
        victim = store.probe(6 + 64)
        return store, miss, clean, dirty, victim

    def test_equal_to_freshly_built_results(self):
        _store, miss, clean, dirty, victim = self.probes()
        assert miss == LookupResult(Outcome.MISS_INVALID)
        assert clean == LookupResult(Outcome.HIT_CLEAN)
        assert dirty == LookupResult(Outcome.HIT_DIRTY)
        assert victim == LookupResult(Outcome.MISS_DIRTY, victim_block=6,
                                      victim_dirty=True)
        for result in (miss, clean, dirty, victim):
            assert type(result) is LookupResult

    def test_penalty_free_results_are_shared(self):
        store, miss, clean, dirty, _victim = self.probes()
        assert store.probe(5) is clean
        assert store.probe(6) is dirty
        assert store.probe(7) is miss

    @pytest.mark.parametrize("field", LookupResult._fields)
    def test_results_cannot_be_mutated(self, field):
        for result in self.probes()[1:]:
            with pytest.raises(AttributeError):
                setattr(result, field, getattr(result, field))
        store = TagStore(num_frames=64, ways=1)
        assert store.probe(5) == LookupResult(Outcome.MISS_INVALID)
