"""Tests for the static-analysis engine (repro.analysis).

Each rule gets positive (flagged) and negative (clean) fixture
snippets; the engine-level features — noqa suppressions, cross-file
passes, CLI exit codes — are exercised end to end on temporary trees.
"""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import main as lint_main


def lint(tmp_path, files, select=None):
    """Write fixture files under tmp_path and run the analyzer."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")
    return Analyzer(select=select).run([str(tmp_path)])


def rules_of(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# SIM001 - wall clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_flags_time_time(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            import time
            def tick():
                return time.time()
            """}, select=["SIM001"])
        assert rules_of(report) == ["SIM001"]
        assert "time.time" in report.findings[0].message

    def test_flags_from_import_alias(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            from time import perf_counter_ns as pc
            def tick():
                return pc()
            """}, select=["SIM001"])
        assert rules_of(report) == ["SIM001"]

    def test_flags_datetime_now(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            from datetime import datetime
            def stamp():
                return datetime.now()
            """}, select=["SIM001"])
        assert rules_of(report) == ["SIM001"]

    def test_sim_now_is_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def tick(sim):
                return sim.now
            """}, select=["SIM001"])
        assert report.ok

    def test_experiments_modules_exempt(self, tmp_path):
        report = lint(tmp_path, {"src/repro/experiments/eta.py": """\
            import time
            def eta():
                return time.monotonic()
            """}, select=["SIM001"])
        assert report.ok

    def test_cli_basename_exempt(self, tmp_path):
        report = lint(tmp_path, {"cli.py": """\
            import time
            def eta():
                return time.monotonic()
            """}, select=["SIM001"])
        assert report.ok


# ----------------------------------------------------------------------
# SIM002 - unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandomness:
    def test_flags_module_level_draw(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            import random
            def jitter():
                return random.random()
            """}, select=["SIM002"])
        assert rules_of(report) == ["SIM002"]

    def test_flags_np_random_rand(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            import numpy as np
            def noise(n):
                return np.random.rand(n)
            """}, select=["SIM002"])
        assert rules_of(report) == ["SIM002"]

    def test_flags_unseeded_default_rng(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            import numpy as np
            def gen():
                return np.random.default_rng()
            """}, select=["SIM002"])
        assert rules_of(report) == ["SIM002"]
        assert "without an explicit seed" in report.findings[0].message

    def test_seeded_constructors_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            import random
            import numpy as np
            def gens(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """}, select=["SIM002"])
        assert report.ok

    def test_instance_draws_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def draw(rng):
                return rng.random()
            """}, select=["SIM002"])
        assert report.ok


# ----------------------------------------------------------------------
# SIM003 - float equality on timestamps
# ----------------------------------------------------------------------
class TestFloatTimeEquality:
    def test_flags_ns_attribute_equality(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def same(a, b):
                return a.mean_ns == b.mean_ns
            """}, select=["SIM003"])
        assert rules_of(report) == ["SIM003"]

    def test_flags_to_ns_call(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def done(sim, deadline):
                return to_ns(sim.now) != deadline
            """}, select=["SIM003"])
        assert rules_of(report) == ["SIM003"]

    def test_integer_ps_comparison_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def done(now_ps, deadline_ps):
                return now_ps == deadline_ps
            """}, select=["SIM003"])
        assert report.ok

    def test_ordering_comparison_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def late(a_ns, b_ns):
                return a_ns > b_ns
            """}, select=["SIM003"])
        assert report.ok


# ----------------------------------------------------------------------
# SIM004 - mutable defaults
# ----------------------------------------------------------------------
class TestMutableDefaults:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()",
                                         "defaultdict(int)"])
    def test_flags_mutable_default(self, tmp_path, default):
        report = lint(tmp_path, {"mod.py": f"""\
            from collections import defaultdict
            def f(x, acc={default}):
                return acc
            """}, select=["SIM004"])
        assert rules_of(report) == ["SIM004"]

    def test_flags_kwonly_default(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def f(*, acc=[]):
                return acc
            """}, select=["SIM004"])
        assert rules_of(report) == ["SIM004"]

    def test_none_default_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def f(x, acc=None, n=3, name="x"):
                return acc or []
            """}, select=["SIM004"])
        assert report.ok


# ----------------------------------------------------------------------
# SIM006 - counter reads declared (cross-file)
# ----------------------------------------------------------------------
class TestCountersDeclared:
    def test_flags_read_of_never_added_counter(self, tmp_path):
        report = lint(tmp_path, {
            "writer.py": """\
                def record(self):
                    self.events.add("writebacks")
                """,
            "reader.py": """\
                def report(metrics):
                    return metrics.events["write_backs"]
                """,
        }, select=["SIM006"])
        assert rules_of(report) == ["SIM006"]
        assert "write_backs" in report.findings[0].message

    def test_add_in_another_file_satisfies_read(self, tmp_path):
        report = lint(tmp_path, {
            "writer.py": """\
                def record(self):
                    self.events.add("writebacks")
                """,
            "reader.py": """\
                def report(metrics):
                    return metrics.events["writebacks"]
                """,
        }, select=["SIM006"])
        assert report.ok

    def test_categories_constant_declares_names(self, tmp_path):
        report = lint(tmp_path, {
            "writer.py": """\
                BREAKDOWN_CATEGORIES = ("read_hit", "read_miss")
                def record(self, kind):
                    self.outcomes.add(f"{kind}_hit")
                """,
            "reader.py": """\
                def hits(metrics):
                    return metrics.outcomes["read_hit"]
                """,
        }, select=["SIM006"])
        assert report.ok

    def test_total_tuple_in_counter_class_checked(self, tmp_path):
        report = lint(tmp_path, {"counters.py": """\
            class HitCounters(CounterSet):
                def hits(self):
                    return self.total(("tag_hits",))
            """}, select=["SIM006"])
        assert rules_of(report) == ["SIM006"]

    def test_non_counter_subscript_ignored(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def get(table):
                return table["anything"]
            """}, select=["SIM006"])
        assert report.ok


# ----------------------------------------------------------------------
# SIM007 - dead config knobs (cross-file)
# ----------------------------------------------------------------------
class TestConfigKnobsConsumed:
    def test_flags_unconsumed_field(self, tmp_path):
        report = lint(tmp_path, {
            "conf.py": """\
                from dataclasses import dataclass
                @dataclass(frozen=True)
                class FooConfig:
                    depth: int = 4
                    unused_knob: int = 64
                """,
            "user.py": """\
                def build(config):
                    return config.depth
                """,
        }, select=["SIM007"])
        assert rules_of(report) == ["SIM007"]
        assert "unused_knob" in report.findings[0].message

    def test_consumed_everywhere_clean(self, tmp_path):
        report = lint(tmp_path, {
            "conf.py": """\
                from dataclasses import dataclass
                @dataclass
                class FooConfig:
                    depth: int = 4
                """,
            "user.py": """\
                def build(config):
                    return config.depth
                """,
        }, select=["SIM007"])
        assert report.ok

    def test_non_config_dataclass_ignored(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            from dataclasses import dataclass
            @dataclass
            class Result:
                never_read_elsewhere: int = 0
            """}, select=["SIM007"])
        assert report.ok


# ----------------------------------------------------------------------
# SIM008 - set iteration order
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_flags_for_over_set_call(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def dump(names):
                for name in set(names):
                    emit(name)
            """}, select=["SIM008"])
        assert rules_of(report) == ["SIM008"]

    def test_flags_list_of_set_difference(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def leftovers(a, b):
                return list(set(a) - set(b))
            """}, select=["SIM008"])
        assert rules_of(report) == ["SIM008"]

    def test_flags_comprehension_over_set_literal(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def rows(x):
                return [f(v) for v in {x, x + 1}]
            """}, select=["SIM008"])
        assert rules_of(report) == ["SIM008"]

    def test_sorted_wrap_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def dump(a, b):
                for name in sorted(set(a) - set(b)):
                    emit(name)
                return sorted({x for x in a})
            """}, select=["SIM008"])
        assert report.ok

    def test_membership_and_len_clean(self, tmp_path):
        report = lint(tmp_path, {"mod.py": """\
            def stats(a, b):
                seen = set(a)
                return (b in seen), len(seen)
            """}, select=["SIM008"])
        assert report.ok


# ----------------------------------------------------------------------
# Engine: suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    DRAW = """\
        import random
        def jitter():
            return random.random()  {comment}
        """

    def lint_draw(self, tmp_path, comment):
        return lint(tmp_path, {"mod.py": self.DRAW.format(comment=comment)},
                    select=["SIM002"])

    def test_noqa_with_rule_and_reason_suppresses(self, tmp_path):
        report = self.lint_draw(
            tmp_path, "# tdram: noqa[SIM002] -- fixture draw kept on purpose")
        assert report.ok
        assert len(report.suppressed) == 1

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        report = self.lint_draw(
            tmp_path, "# tdram: noqa[SIM001] -- wrong rule listed")
        assert rules_of(report) == ["SIM002"]

    def test_bare_noqa_is_its_own_finding(self, tmp_path):
        report = self.lint_draw(tmp_path, "# tdram: noqa")
        assert sorted(rules_of(report)) == ["LNT000", "SIM002"]

    def test_noqa_without_reason_is_its_own_finding(self, tmp_path):
        report = self.lint_draw(tmp_path, "# tdram: noqa[SIM002]")
        assert "LNT000" in rules_of(report)

    def test_pattern_inside_docstring_ignored(self, tmp_path):
        report = lint(tmp_path, {"mod.py": '''\
            """Explains the grammar: # tdram: noqa means nothing here."""
            '''}, select=["SIM002"])
        assert report.ok

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        report = lint(tmp_path, {"mod.py": "def broken(:\n"},
                      select=["SIM002"])
        assert rules_of(report) == ["LNT001"]


# ----------------------------------------------------------------------
# CLI: exit codes and output modes
# ----------------------------------------------------------------------
UNSEEDED = "import random\ndef f():\n    return random.random()\n"


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(UNSEEDED)
        assert lint_main([str(tmp_path)]) == 1
        assert "SIM002" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "SIM999"]) == 2

    def test_json_output_schema(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(UNSEEDED)
        assert lint_main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert payload["findings"][0]["rule"] == "SIM002"
        assert {"path", "line", "col", "message"} <= \
            set(payload["findings"][0])

    def test_list_rules_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("SIM")]
        assert listed == ["SIM001", "SIM002", "SIM003", "SIM004", "SIM006",
                          "SIM007", "SIM008", "SIM012", "SIM015"]

    def test_tdram_repro_lint_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path)]) == 0


# ----------------------------------------------------------------------
# The repository itself stays clean
# ----------------------------------------------------------------------
class TestRepositoryClean:
    def test_src_repro_lints_clean(self):
        import repro

        from pathlib import Path

        src = Path(repro.__file__).resolve().parent
        report = Analyzer().run([str(src)])
        assert report.ok, "\n" + report.render()
        # The only exemptions: the kernel profiler's two host-clock reads.
        assert [(f.rule, f.path.rsplit("repro/", 1)[-1])
                for f in report.suppressed] == [("SIM001", "sim/kernel.py")] * 2


# ----------------------------------------------------------------------
# SIM012 - silent broad except in harness code
# ----------------------------------------------------------------------
class TestSilentExceptionSwallow:
    def test_flags_except_exception_pass_in_experiments(self, tmp_path):
        report = lint(tmp_path, {"src/repro/experiments/mod.py": """\
            def f(g):
                try:
                    g()
                except Exception:
                    pass
            """}, select=["SIM012"])
        assert rules_of(report) == ["SIM012"]
        assert "except Exception" in report.findings[0].message

    def test_flags_bare_except_continue_in_experiments(self, tmp_path):
        report = lint(tmp_path, {"src/repro/experiments/mod.py": """\
            def f(items, g):
                for item in items:
                    try:
                        g(item)
                    except:
                        continue
            """}, select=["SIM012"])
        assert rules_of(report) == ["SIM012"]
        assert "bare except" in report.findings[0].message

    def test_handled_broad_except_is_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/experiments/mod.py": """\
            def f(g, counters):
                try:
                    g()
                except Exception as error:
                    counters["failures"] = repr(error)
            """}, select=["SIM012"])
        assert report.ok

    def test_narrow_except_pass_is_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/experiments/mod.py": """\
            def f(g):
                try:
                    g()
                except FileNotFoundError:
                    pass
            """}, select=["SIM012"])
        assert report.ok

    def test_non_harness_modules_exempt(self, tmp_path):
        report = lint(tmp_path, {"src/repro/stats/mod.py": """\
            def f(g):
                try:
                    g()
                except Exception:
                    pass
            """}, select=["SIM012"])
        assert report.ok

    def test_noqa_suppresses_with_reason(self, tmp_path):
        report = lint(tmp_path, {"src/repro/experiments/mod.py": """\
            def f(g):
                try:
                    g()
                except Exception:  # tdram: noqa[SIM012] -- probe only
                    pass
            """}, select=["SIM012"])
        assert report.ok
