"""Tests for the report generator."""

from repro.config.system import MIB, SystemConfig
from repro.experiments.figures import ExperimentContext
from repro.experiments.report_gen import generate_report
from repro.workloads import workload

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=4)


class TestReportGenerator:
    def test_report_contains_every_section(self, tmp_path):
        ctx = ExperimentContext(
            config=FAST,
            specs=[workload("cg.C"), workload("is.D")],
            demands_per_core=150, seed=5,
        )
        out = tmp_path / "report.md"
        titles = generate_report(out, ctx, include_studies=False)
        text = out.read_text()
        assert len(titles) == 11
        for fragment in ("Figure 1", "Figure 9", "Figure 13", "Table IV",
                         "Table I", "Figure 4A"):
            assert fragment in text, fragment
        # Markdown tables present with numeric cells.
        assert "| workload |" in text or "| design |" in text
        assert "geomean" in text

    def test_report_header_describes_configuration(self, tmp_path):
        ctx = ExperimentContext(config=FAST, specs=[workload("cg.C")],
                                demands_per_core=120, seed=5)
        out = tmp_path / "r.md"
        generate_report(out, ctx, include_studies=False)
        header = out.read_text().splitlines()[2]
        assert "4 MiB cache" in header
        assert "MLP 4" in header
