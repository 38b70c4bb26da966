"""Tests for the ``tdram-repro`` command-line interface."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.figures as figures_mod
from repro.errors import CampaignError, ConfigError
from repro.experiments.campaign import _execute_task, run_campaign
from repro.experiments.cli import main
from tests.conftest import MARKERS


def counting_runner(task):
    """Run ``task`` as a campaign does, appending one line per run to
    its marker file in the ``REPRO_TEST_MARKERS`` directory (pool
    workers included)."""
    with open(Path(os.environ[MARKERS]) / task.key, "a") as handle:
        handle.write(task.design + "\n")
    return _execute_task(task)


def cache_entries(root):
    """The task metadata of every entry in a result-cache directory."""
    return [json.loads(path.read_text())["task"]
            for path in Path(root).glob("*/*.json")]


class TestCli:
    def test_list_target(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table4" in out and "run" in out

    def test_analytic_figure(self, capsys):
        assert main(["fig4"]) == 0
        assert "die-area" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "TDRAM" in capsys.readouterr().out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_run_requires_two_args(self, capsys):
        assert main(["run", "tdram"]) == 2

    def test_run_single_experiment(self, capsys):
        assert main(["run", "ideal", "bfs.22", "--demands", "50"]) == 0
        out = capsys.readouterr().out
        assert "runtime_ps" in out and "miss_ratio" in out

    def test_run_accepts_synthetic_workload(self):
        assert main(["run", "tdram", "write_storm", "--demands", "20"]) == 0

    def test_run_rejects_zero_demands(self):
        with pytest.raises(ConfigError, match="demands_per_core"):
            main(["run", "tdram", "bfs.22", "--demands", "0"])

    def test_figure_rejects_negative_demands(self):
        with pytest.raises(CampaignError, match="demands_per_core"):
            main(["fig9", "--demands", "-5", "--workloads", "bfs.22",
                  "--no-cache"])

    def test_figure_rejects_zero_jobs(self):
        with pytest.raises(ConfigError, match="jobs must be at least 1, got 0"):
            main(["fig9", "--jobs", "0", "--demands", "20",
                  "--workloads", "bfs.22", "--no-cache"])

    @pytest.mark.parametrize("argv", [
        ["ways", "--workloads", "nope", "--jobs", "0"],
        ["run", "tdram", "bfs.22", "--demands", "20", "--workloads", "nope",
         "--jobs", "0"],
    ], ids=["ways", "run"])
    def test_unread_flags_are_rejected(self, capsys, argv):
        """A flag the target never reads fails before anything runs,
        and the error names the target and each such flag."""
        with pytest.raises(ConfigError, match=f"{argv[0]} does not read "
                                              "--jobs, --workloads"):
            main(argv)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["ways", "foo", "bar"],
        ["fig9", "extra"],
        ["list", "extra"],
        ["campaign", "extra"],
    ], ids=["ways", "fig9", "list", "campaign"])
    def test_stray_arguments_are_rejected(self, capsys, argv):
        """Only ``run`` and ``report`` read positional arguments; any
        other target fails before it runs, naming each argument."""
        stray = ", ".join(repr(arg) for arg in argv[1:])
        with pytest.raises(ConfigError,
                           match=f"{argv[0]} does not read {stray}; drop"):
            main(argv)
        assert capsys.readouterr().out == ""

    def test_trace_target_rejects_no_cache(self, capsys, tmp_path):
        """no_cache has no controller to trace: the target fails before
        simulating and writes no trace file."""
        out = tmp_path / "trace.json"
        with pytest.raises(ConfigError, match="'no_cache'"):
            main(["trace", "--design", "no_cache", "--workload", "ft.D",
                  "--demands", "50", "--out", str(out)])
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_zero_jobs_fails_the_command(self):
        """The ``tdram-repro`` process itself exits non-zero and says
        what to change."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "fig9",
             "--jobs", "0", "--demands", "20", "--workloads", "bfs.22",
             "--no-cache"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert "jobs must be at least 1, got 0" in proc.stderr
        assert proc.stdout == ""

    def test_design_table_matches_registry(self):
        from repro.cache import DESIGNS
        from repro.experiments.cli import _DESIGN_SUMMARIES

        assert set(DESIGNS) == set(_DESIGN_SUMMARIES)

    def test_list_shows_every_registered_design(self, capsys):
        # Every design a campaign can run is listed by ``tdram-repro
        # list``...
        from repro.cache import DESIGNS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        rows = out.split("designs (for run/campaign/--designs):")[1]
        listed = {line.split()[0] for line in rows.splitlines()
                  if line.strip()}
        assert set(DESIGNS) <= listed, set(DESIGNS) - listed

    def test_every_listed_design_runs(self, capsys):
        # ...and every listed design is runnable.
        from repro.experiments.cli import _DESIGN_SUMMARIES

        for name in sorted(_DESIGN_SUMMARIES):
            assert main(["run", name, "bfs.22", "--demands", "20"]) == 0
            assert "runtime_ps" in capsys.readouterr().out, name


class TestCampaignCli:
    ARGS = ["campaign", "--designs", "tdram,no_cache",
            "--workloads", "bfs.22", "--demands", "50"]

    def test_campaign_runs_and_reports(self, capsys, tmp_path):
        argv = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulated=2" in out and "failures=0" in out

    def test_campaign_resume_is_all_cache_hits(self, capsys, tmp_path):
        argv = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "simulated=0" in out and "cached=2" in out

    def test_campaign_without_resume_resimulates(self, capsys, tmp_path):
        argv = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "simulated=2" in capsys.readouterr().out

    def test_campaign_rejects_negative_jobs(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with pytest.raises(ConfigError, match="jobs must be at least 1, got -1"):
            main(self.ARGS + ["--jobs", "-1", "--cache-dir", str(cache_dir)])
        assert cache_entries(cache_dir) == []

    def test_campaign_rejects_negative_retries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with pytest.raises(ConfigError,
                           match="retries must be non-negative, got -1"):
            main(self.ARGS + ["--retries", "-1", "--cache-dir", str(cache_dir)])
        assert cache_entries(cache_dir) == []

    def test_campaign_no_cache_writes_nothing(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = self.ARGS + ["--cache-dir", str(cache_dir), "--no-cache"]
        assert main(argv) == 0
        assert not cache_dir.exists()

    def test_campaign_out_writes_results_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "campaign.json"
        argv = self.ARGS + ["--no-cache", "--out", str(out_path)]
        assert main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 2
        assert {entry["design"] for entry in payload} == {"tdram", "no_cache"}
        assert all(entry["result"]["runtime_ps"] > 0 for entry in payload)

    def test_campaign_unknown_design_fails(self, capsys, tmp_path):
        argv = ["campaign", "--designs", "warp_drive", "--workloads",
                "bfs.22", "--demands", "50", "--no-cache", "--retries", "0"]
        with pytest.raises(ConfigError, match="'warp_drive'"):
            main(argv)

    def test_campaign_rejects_unknown_design(self, tmp_path):
        """A bad name among good ones fails before any task runs."""
        cache_dir = tmp_path / "cache"
        argv = ["campaign", "--designs", "tdram,nope", "--workloads",
                "bfs.22", "--demands", "20", "--cache-dir", str(cache_dir)]
        with pytest.raises(ConfigError, match="'nope'"):
            main(argv)
        assert cache_entries(cache_dir) == []

    def test_context_figure_with_jobs_and_cache(self, capsys, tmp_path):
        argv = ["fig1", "--demands", "50", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "Figure 1" in capsys.readouterr().out
        assert (tmp_path / "cache").exists()


#: Every target that simulates, one context figure among them.
SIMULATING_TARGETS = ("predictor", "prefetcher", "flush", "setassoc",
                      "ablation", "tdram-ablation", "fig1")


class TestContextTargets:
    @pytest.mark.parametrize("target", SIMULATING_TARGETS)
    def test_target_honours_run_flags(self, capsys, tmp_path, target):
        """Each simulating target runs every cell at ``--demands`` and
        ``--seed`` through the ``--cache-dir`` cache."""
        cache_dir = tmp_path / "cache"
        argv = [target, "--demands", "40", "--seed", "3",
                "--workloads", "bfs.22", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        entries = cache_entries(cache_dir)
        assert entries, f"{target} wrote no cache entry"
        assert {(e["demands_per_core"], e["seed"]) for e in entries} == \
            {(40, 3)}

    def test_report_simulates_each_cell_once(self, tmp_path, monkeypatch):
        """``report --jobs 2`` runs every cell it reads exactly once, and
        no cell of a design no section reads."""
        markers = tmp_path / "runs"
        markers.mkdir()
        monkeypatch.setenv(MARKERS, str(markers))
        monkeypatch.setattr(figures_mod, "run_campaign", functools.partial(
            run_campaign, runner=counting_runner))
        cache_dir = tmp_path / "cache"
        argv = ["report", str(tmp_path / "report.md"), "--jobs", "2",
                "--demands", "40", "--workloads", "bfs.22,ft.D",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        runs = {path.name: path.read_text().splitlines()
                for path in markers.iterdir()}
        # 7 designs x 2 figure workloads, 3 more flush-buffer sizes,
        # 4 more associativities x 2 designs x 2 workloads, and 2
        # no-probing TDRAM runs
        assert len(runs) == 14 + 3 + 16 + 2
        assert all(len(lines) == 1 for lines in runs.values())
        assert len(cache_entries(cache_dir)) == len(runs)

    def test_flush_runs_the_named_workload(self, capsys):
        """``flush --workloads W`` sweeps the buffer sizes on W, not on
        the default ft.D, and its title names W."""
        argv = ["flush", "--workloads", "write_storm", "--demands", "40",
                "--no-cache"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        runs = {tuple(line.split()[1:3]) for line in captured.err.splitlines()
                if line.startswith("[")}
        assert runs == {("tdram/write_storm@7", "simulated")}
        assert "(TDRAM, write_storm)" in captured.out

    def test_flush_rejects_two_workloads(self, capsys):
        """``flush`` sweeps one workload: naming two fails before any
        simulation, and the error names the flag to change."""
        with pytest.raises(ConfigError, match="--workloads"):
            main(["flush", "--workloads", "ft.D,write_storm", "--demands",
                  "40", "--no-cache"])
        assert capsys.readouterr().err == ""
