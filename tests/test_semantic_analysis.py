"""Tests for the time-unit checker (SIM015) and noqa edge cases.

The unit checker gets synthetic fixtures (mixed-unit arithmetic and
comparisons, helpers fed the wrong unit, suffix mismatches); the noqa
cases cover multi-rule suppressions and suppressing a cross-file
finding.
"""

from __future__ import annotations

from textwrap import dedent

from repro.analysis import Analyzer


def lint(tmp_path, files, select=None):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")
    return Analyzer(select=select).run([str(tmp_path)])


def rules_of(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# SIM015 - time-unit dimension checking
# ----------------------------------------------------------------------
class TestTimeUnits:
    def test_flags_mixed_addition(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def total(delay_ns, deadline_ps):
                return delay_ns + deadline_ps
            """}, select=["SIM015"])
        assert rules_of(report) == ["SIM015"]
        assert "mixed-unit arithmetic" in report.findings[0].message

    def test_flags_mixed_comparison_with_sim_now(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def late(sim, latency_ns):
                return sim.now > latency_ns
            """}, select=["SIM015"])
        assert rules_of(report) == ["SIM015"]
        assert "ps" in report.findings[0].message

    def test_flags_helper_given_wrong_unit(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def convert(deadline_ps):
                return ns(deadline_ps)
            """}, select=["SIM015"])
        assert rules_of(report) == ["SIM015"]
        assert "expects ns" in report.findings[0].message

    def test_flags_suffix_assignment_mismatch(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def bind(start_ps):
                start_ns = start_ps
                return start_ns
            """}, select=["SIM015"])
        assert rules_of(report) == ["SIM015"]

    def test_flags_min_over_mixed_units(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def soonest(wake_ps, grace_ns):
                return min(wake_ps, grace_ns)
            """}, select=["SIM015"])
        assert rules_of(report) == ["SIM015"]

    def test_one_finding_per_site(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def total(delay_ns, deadline_ps):
                mixed = delay_ns + deadline_ps
                return mixed
            """}, select=["SIM015"])
        assert len(report.findings) == 1

    def test_conversion_through_helper_is_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def total(sim, delay_ns):
                deadline_ps = sim.now + ns(delay_ns)
                return deadline_ps
            """}, select=["SIM015"])
        assert report.ok

    def test_multiplicative_arithmetic_is_exempt(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def rate(total_bytes, runtime_ns, clock_ghz):
                return total_bytes / runtime_ns * clock_ghz
            """}, select=["SIM015"])
        assert report.ok


# ----------------------------------------------------------------------
# noqa edge cases
# ----------------------------------------------------------------------
class TestNoqaEdgeCases:
    def test_multi_rule_noqa_suppresses_both(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            import random
            def f(opts={}): return random.random()  # tdram: noqa[SIM002,SIM004] -- fixture needs both
            """, }, select=["SIM002", "SIM004"])
        assert report.ok
        assert sorted(f.rule for f in report.suppressed) == \
            ["SIM002", "SIM004"]

    def test_noqa_suppresses_cross_file_finding(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def report(metrics):
                return metrics.events["ghost_metric"]  # tdram: noqa[SIM006] -- debug-only tally
            """}, select=["SIM006"])
        assert report.ok
        assert report.suppressed

    def test_missing_reason_on_new_rule_is_lnt000(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def report(metrics):
                return metrics.events["ghost_metric"]  # tdram: noqa[SIM006]
            """}, select=["SIM006"])
        assert "LNT000" in rules_of(report)

    def test_unit_finding_suppressible(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def total(delay_ns, deadline_ps):
                return delay_ns + deadline_ps  # tdram: noqa[SIM015] -- vendor formula
            """}, select=["SIM015"])
        assert report.ok
