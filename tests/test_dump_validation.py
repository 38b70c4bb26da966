"""Tests for the stats dump and the suite summary."""

from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.tdram import TdramCache
from repro.stats.dump import collect_stats, dump_stats
from repro.workloads.suite import suite_summary


class TestStatsDump:
    def test_dump_covers_all_subsystems(self, make_system):
        system = make_system(TdramCache)
        system.cache.tags.install(0, dirty=False)
        system.read(0)
        system.read(999)
        system.write(5)
        system.run()
        stats = collect_stats(system.cache)
        assert stats["cache.ch0.ca.grants"] >= 0
        assert stats["mm.reads_issued"] == 1
        assert stats["cache.outcomes.demands"] == 3
        assert "cache.energy.dynamic_pj" in stats
        assert "cache.flush.occupancy" in stats
        assert any(key.startswith("cache.ledger.") for key in stats)

    def test_tag_path_stats_only_for_tagged_designs(self, make_system):
        tagged = make_system(TdramCache)
        plain = make_system(CascadeLakeCache)
        for system in (tagged, plain):
            system.read(0)
            system.run()
        assert any("hm.grants" in key for key in collect_stats(tagged.cache))
        assert not any("hm.grants" in key
                       for key in collect_stats(plain.cache))

    def test_rendered_dump_greps(self, make_system):
        system = make_system(TdramCache)
        system.read(0)
        system.run()
        text = dump_stats(system.cache)
        assert "sim.now_ns = " in text
        assert "mm.reads_issued = 1" in text


class TestSuiteSummary:
    def test_lists_all_28(self):
        summary = suite_summary()
        assert len(summary.rows) == 28
        assert {row["group"] for row in summary.rows} == {"low", "high"}

    def test_renders(self):
        text = suite_summary().render()
        assert "ft.D" in text and "pr.25" in text
