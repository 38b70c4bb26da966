"""Design-zoo seam tests: bit-identity A/B, policy fixtures, RAS books.

The organization/replacement refactor must be invisible to every
pre-existing design: ``TestBitIdentity`` runs each one through
``run_experiment`` twice — seamed :class:`TagStore` vs the frozen
:class:`ReferenceTagStore`, swapped in by patching the controller's
``_build_tag_store`` hook — and requires ``dataclasses.asdict``
equality of the *full* :class:`RunResult`. ``TestHookContracts``
checks that the plugin bases refuse a half-implemented subclass at
construction. The remaining classes pin the seam pieces in isolation
(LRU order, hybrid set math, SRAM tag cache, dirty-region list, TicToc
mirrors) and the hot-path/accounting fixes that rode along: ``fill``'s
single-walk stale-drop semantics, ECC decode counts balancing across
the probe→install pair, and the zero-demand breakdown convention.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.controller import DramCacheController
from repro.cache.metrics import BREAKDOWN_CATEGORIES, CacheMetrics
from repro.cache.organization import (
    DirtyRegionList,
    HybridMappingOrganization,
    LruPolicy,
    Organization,
    ReplacementPolicy,
    SetAssociativeOrganization,
    SramTagCache,
    TictocPolicy,
)
from repro.cache.reference_tagstore import ReferenceTagStore
from repro.cache.request import Outcome
from repro.cache.tagstore import TagStore
from repro.config.system import SystemConfig
from repro.dram.monitor import ChannelObserver
from repro.errors import ConfigError
from repro.experiments.runner import run_experiment
from repro.stats.counters import RasCounters

#: every design that existed before the seam — each must be bit-
#: identical through it
PRE_SEAM_DESIGNS = (
    "cascade_lake", "alloy", "bear", "ndc", "tdram", "ideal", "no_cache",
)


# ---------------------------------------------------------------------------
# Tentpole: the seam changes nothing for existing designs
# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("design", PRE_SEAM_DESIGNS)
    def test_design_bit_identical_through_seam(self, design, monkeypatch):
        config = SystemConfig.small()
        seamed = run_experiment(design, "bfs.22", config=config,
                                demands_per_core=150, seed=11)
        built = []

        def frozen_store(controller, geometry):
            built.append(ReferenceTagStore(geometry.total_blocks,
                                           controller.config.cache_ways))
            return built[-1]

        monkeypatch.setattr(DramCacheController, "_build_tag_store",
                            frozen_store)
        frozen = run_experiment(design, "bfs.22", config=config,
                                demands_per_core=150, seed=11)
        assert built or design == "no_cache"
        assert dataclasses.asdict(seamed) == dataclasses.asdict(frozen)

    def test_default_organization_selects_seamed_store(self, make_system):
        from repro.cache.cascade_lake import CascadeLakeCache
        system = make_system(CascadeLakeCache)
        assert type(system.cache.tags) is TagStore


# ---------------------------------------------------------------------------
# New designs run end to end
# ---------------------------------------------------------------------------
class TestNewDesigns:
    def test_gemini_hybrid_end_to_end(self):
        result = run_experiment("gemini_hybrid", "bfs.22",
                                config=SystemConfig.small(),
                                demands_per_core=200, seed=11)
        assert result.demands > 0
        assert result.events.get("gemini_assoc_probes", 0) > 0

    def test_tictoc_end_to_end(self):
        result = run_experiment("tictoc", "bfs.22",
                                config=SystemConfig.small(),
                                demands_per_core=200, seed=11)
        assert result.demands > 0
        tag_traffic = (result.events.get("tictoc_tag_cache_hits", 0)
                       + result.events.get("tictoc_tag_probes", 0)
                       + result.events.get("tictoc_bypass_reads", 0)
                       + result.events.get("tictoc_direct_writes", 0))
        assert tag_traffic > 0


# ---------------------------------------------------------------------------
# Plugin seams refuse half-implemented subclasses at construction
# ---------------------------------------------------------------------------
class TestHookContracts:
    HOOKS = {
        Organization: {"set_index", "ways_of"},
        ReplacementPolicy: {"victim", "on_hit", "on_install"},
        ChannelObserver: {"on_command"},
    }

    @pytest.mark.parametrize("base", list(HOOKS), ids=lambda b: b.__name__)
    def test_missing_hook_fails_at_construction(self, base):
        assert base.__abstractmethods__ == self.HOOKS[base]
        with pytest.raises(TypeError, match="abstract"):
            type("HalfImplemented", (base,), {})()


# ---------------------------------------------------------------------------
# Policy / organization unit fixtures
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


class TestHybridMappingOrganization:
    def test_set_math_splits_frame_pool(self):
        org = HybridMappingOrganization(64, direct_fraction=0.5,
                                        assoc_ways=4, assoc_probe_ps=100,
                                        is_hot=lambda block: False)
        assert org.direct_sets == 32
        assert org.assoc_sets == 8
        assert org.num_sets == 40
        # Frame count is conserved across the two regions.
        assert org.direct_sets * 1 + org.assoc_sets * org.assoc_ways == 64

    def test_hotness_routes_between_regions(self):
        hot = set()
        org = HybridMappingOrganization(64, direct_fraction=0.5,
                                        assoc_ways=4, assoc_probe_ps=100,
                                        is_hot=hot.__contains__)
        cold_idx = org.set_index(3)
        assert cold_idx >= org.direct_sets
        assert org.ways_of(cold_idx) == 4
        assert org.probe_cost_ps(cold_idx) == 100
        # The predicate is consulted per call: promotion re-routes the
        # same block into the direct region.
        hot.add(3)
        hot_idx = org.set_index(3)
        assert hot_idx < org.direct_sets
        assert org.ways_of(hot_idx) == 1
        assert org.probe_cost_ps(hot_idx) == 0

    def test_degenerate_split_rejected(self):
        with pytest.raises(ConfigError):
            HybridMappingOrganization(2, direct_fraction=0.5, assoc_ways=4,
                                      assoc_probe_ps=0,
                                      is_hot=lambda block: False)

    def test_store_capacity_follows_region(self):
        org = HybridMappingOrganization(64, direct_fraction=0.5,
                                        assoc_ways=4, assoc_probe_ps=100,
                                        is_hot=lambda block: False)
        tags = TagStore(64, ways=4, organization=org)
        # Four cold blocks aliasing one associative set all fit...
        for i in range(4):
            assert tags.install(3 + 8 * i, dirty=False) is None
        # ...and the fifth evicts the LRU of that set.
        assert tags.install(3 + 8 * 4, dirty=False) == (3, False)


class TestSramTagCache:
    def test_hit_miss_and_update(self):
        cache = SramTagCache(2)
        assert cache.get(1) is None
        cache.put(1, False)
        assert cache.get(1) is False
        cache.put(1, True)
        assert cache.get(1) is True
        assert len(cache) == 1

    def test_bounded_lru_eviction(self):
        cache = SramTagCache(2)
        cache.put(1, False)
        cache.put(2, False)
        assert cache.get(1) is False  # touch: 2 becomes LRU
        cache.put(3, True)
        assert cache.get(2) is None
        assert cache.get(1) is False
        assert cache.get(3) is True

    def test_drop_is_idempotent(self):
        cache = SramTagCache(2)
        cache.put(1, False)
        cache.drop(1)
        cache.drop(1)
        assert cache.get(1) is None

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            SramTagCache(0)


class TestDirtyRegionList:
    def test_add_remove_roundtrip(self):
        dirty = DirtyRegionList(4)
        assert not dirty.region_dirty(0)
        dirty.add(1)
        dirty.add(2)  # same region (sets 0-3)
        assert dirty.region_dirty(0) and dirty.region_dirty(3)
        assert not dirty.region_dirty(4)
        assert dirty.dirty_regions() == 1
        dirty.remove(1)
        assert dirty.region_dirty(2)
        dirty.remove(2)
        assert not dirty.region_dirty(0)
        assert dirty.dirty_regions() == 0

    def test_underflow_is_loud(self):
        dirty = DirtyRegionList(4)
        with pytest.raises(ConfigError):
            dirty.remove(0)


class TestTictocPolicyMirrors:
    def _store(self):
        org = SetAssociativeOrganization(8, ways=2)
        policy = TictocPolicy(SramTagCache(16), DirtyRegionList(2),
                              org.set_index)
        tags = TagStore(8, ways=2, organization=org, policy=policy)
        return tags, policy

    def test_install_and_dirty_transitions_mirror(self):
        tags, policy = self._store()
        tags.install(0, dirty=False)
        assert policy.tag_cache.get(0) is False
        assert policy.dirty_list.dirty_regions() == 0
        tags.install(4, dirty=True)
        assert policy.tag_cache.get(4) is True
        assert policy.dirty_list.region_dirty(tags.set_index(4))
        # Re-dirtying a resident clean line goes through on_dirty.
        tags.install(0, dirty=True)
        assert policy.tag_cache.get(0) is True
        assert policy.dirty_list.dirty_regions() == 1  # same region

    def test_eviction_and_invalidate_drop_mirrors(self):
        tags, policy = self._store()
        tags.install(0, dirty=True)
        tags.install(4, dirty=False)
        evicted = tags.install(8, dirty=False)  # set 0 full: LRU 0 leaves
        assert evicted == (0, True)
        assert policy.tag_cache.get(0) is None
        assert policy.dirty_list.dirty_regions() == 0
        assert tags.invalidate(4)
        assert policy.tag_cache.get(4) is None

    def test_tracks_residency_disables_lazy_prewarm(self):
        tags, policy = self._store()
        tags.bulk_install(range(8), [False] * 8)
        assert tags._lazy_n == 0  # general path: every install surfaced
        assert tags.resident_blocks() == 8
        assert len(policy.tag_cache) == 8

    def test_probe_touch_refreshes_tag_cache(self):
        tags, policy = self._store()
        tags.install(0, dirty=False)
        policy.tag_cache.drop(0)  # simulate SRAM capacity eviction
        assert tags.probe(0).outcome is Outcome.HIT_CLEAN
        assert policy.tag_cache.get(0) is False


# ---------------------------------------------------------------------------
# Satellite: fill()'s single-walk stale-drop semantics
# ---------------------------------------------------------------------------
class TestFillSemantics:
    @pytest.mark.parametrize("store_cls", [TagStore, ReferenceTagStore])
    def test_stale_clean_fill_dropped(self, store_cls):
        tags = store_cls(8, 2)
        # A write allocated the block (dirty) while the miss fetch was
        # in flight: the late clean fill must not clobber it.
        tags.install(3, dirty=True)
        assert tags.fill(3) is None
        assert tags.is_dirty(3)

    @pytest.mark.parametrize("store_cls", [TagStore, ReferenceTagStore])
    def test_fill_evicts_when_set_full(self, store_cls):
        tags = store_cls(4, 1)
        tags.install(2, dirty=True)
        assert tags.fill(6) == (2, True)
        assert tags.contains(6) and not tags.contains(2)


# ---------------------------------------------------------------------------
# Satellite: ECC decode counts balance across the probe→install pair
# ---------------------------------------------------------------------------
class _CountingRasHook:
    """Minimal tag-store RAS hook backed by a real :class:`RasCounters`.

    Decodes always succeed (penalty 0) unless the block is listed in
    ``uncorrectable``, mirroring the manager's contract: ``None`` means
    the word is lost after retries.
    """

    def __init__(self):
        self.counters = RasCounters()
        self.uncorrectable = set()

    def block_disabled(self, block):
        return False

    def encode_line(self, block, dirty):
        return 0

    def note_rewrite(self, line):
        pass

    def write_through(self, block):
        self.counters.add("write_through_degraded")

    def dropped_fill(self):
        self.counters.add("dropped_fill_degraded")

    def on_tag_read(self, line, block):
        self.counters.add("tag_reads_checked")
        if block in self.uncorrectable:
            self.counters.add("tag_uncorrectable")
            return None
        return 0


class TestRasDecodeAccounting:
    def _tags(self):
        tags = TagStore(4, ways=1)
        tags.ras = _CountingRasHook()
        return tags, tags.ras

    def test_probe_install_pair_decodes_victim_once(self):
        tags, ras = self._tags()
        tags.install(1, dirty=True)
        result = tags.probe(5)  # miss: decodes the victim's word
        assert result.victim_block == 1
        checked_after_probe = ras.counters["tag_reads_checked"]
        assert checked_after_probe == 1
        # The install this probe leads to consumes the mark — the same
        # physical read must not be counted twice.
        assert tags.install(5, dirty=False) == (1, True)
        assert ras.counters["tag_reads_checked"] == checked_after_probe

    def test_unpaired_eviction_decodes_exactly_once(self):
        tags, ras = self._tags()
        tags.install(1, dirty=True)
        # No preceding miss probe (e.g. a fill racing a later install):
        # the victim's word was never read, so eviction reads it now.
        assert tags.fill(5) == (1, True)
        assert ras.counters["tag_reads_checked"] == 1

    def test_rewrite_clears_pairing_mark(self):
        tags, ras = self._tags()
        tags.install(1, dirty=False)
        tags.probe(5)  # marks line 1 probed
        tags.install(1, dirty=True)  # rewrite stores a fresh word
        # The fresh word has never been read: eviction decodes it again
        # (probe-time victim decode + post-rewrite eviction decode).
        tags.fill(5)
        assert ras.counters["tag_reads_checked"] == 2

    def test_uncorrectable_victim_yields_no_writeback(self):
        tags, ras = self._tags()
        tags.install(1, dirty=True)
        ras.uncorrectable.add(1)
        # The victim's content is unrecoverable — nothing to write back,
        # but the incoming fill still lands.
        assert tags.fill(5) is None
        assert tags.contains(5) and not tags.contains(1)
        assert ras.counters["tag_uncorrectable"] == 1


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
