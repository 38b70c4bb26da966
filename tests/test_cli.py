"""Tests for the ``tdram-repro`` command-line interface."""

import pytest

from repro.experiments.cli import main


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
        assert main(argv) == 1
        assert "failures=1" in capsys.readouterr().out

    def test_context_figure_with_jobs_and_cache(self, capsys, tmp_path):
        argv = ["fig1", "--demands", "50", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "Figure 1" in capsys.readouterr().out
        assert (tmp_path / "cache").exists()

