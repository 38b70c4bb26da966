"""§V-E: flush-buffer size sensitivity (8/16/32/64 entries).

Paper: at 8 entries only one workload stalled (13 times); at 16
entries TDRAM never stalls; mean occupancy ~5, max ~12; most unloads
ride read-miss-clean DQ slots, with refresh windows as backup.
"""

from benchmarks.conftest import run_and_render
from repro.experiments.studies import flush_buffer_sensitivity


def test_flush_buffer_sensitivity(benchmark, ctx):
    # The session context: SystemConfig.small(), REPRO_BENCH_DEMANDS
    # demands per core, seed 7; the study runs on ft.D alone.
    result = run_and_render(benchmark, flush_buffer_sensitivity, ctx,
                            sizes=(8, 16, 32, 64))
    rows = {row["entries"]: row for row in result.rows}
    assert rows[16]["stalls"] == 0
    assert rows[16]["max_occupancy"] <= 16
    assert rows[8]["stalls"] >= rows[64]["stalls"]
    assert rows[16]["unload_read_miss_clean"] > 0
