"""Tests for trace recording and replay."""

import itertools

import pytest

from repro.cache.request import Op
from repro.config.system import SystemConfig
from repro.errors import WorkloadError
from repro.workloads import demand_stream, workload
from repro.workloads.trace import (
    capture_trace,
    read_trace,
    trace_stats,
    trace_streams,
    write_trace,
)

RECORDS = [
    (1000, Op.READ, 5, 64),
    (0, Op.WRITE, 9, 0),
    (2500, Op.READ, 5, 128),
]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "t.trace"
        assert write_trace(path, RECORDS) == 3
        assert list(read_trace(path)) == RECORDS

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(path, RECORDS)
        assert list(read_trace(path)) == RECORDS

    def test_header_comments_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, RECORDS, header="workload: demo\nseed: 3")
        text = path.read_text()
        assert text.startswith("# workload: demo")
        assert list(read_trace(path)) == RECORDS

    def test_pc_column_optional(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("10 R 5\n20 W 6 99\n")
        assert list(read_trace(path)) == [(10, Op.READ, 5, 0),
                                          (20, Op.WRITE, 6, 99)]

    @pytest.mark.parametrize("line", ["10 R", "10 X 5", "ten R 5",
                                      "-1 R 5", "10 R -5"])
    def test_malformed_records_rejected(self, tmp_path, line):
        path = tmp_path / "bad.trace"
        path.write_text(line + "\n")
        with pytest.raises(WorkloadError):
            list(read_trace(path))

    def test_capture_from_suite_generator(self, tmp_path):
        config = SystemConfig.small()
        stream = demand_stream(workload("cg.C"), config, 0, 8, seed=3)
        path = tmp_path / "cg.trace"
        assert capture_trace(path, stream, 200) == 200
        replayed = list(read_trace(path))
        fresh = list(itertools.islice(
            demand_stream(workload("cg.C"), config, 0, 8, seed=3), 200))
        assert replayed == fresh

    @pytest.mark.parametrize("count", [0, -5])
    def test_capture_rejects_non_positive_count(self, tmp_path, count):
        stream = demand_stream(workload("cg.C"), SystemConfig.small(), 0, 8,
                               seed=3)
        path = tmp_path / "cg.trace"
        with pytest.raises(WorkloadError,
                           match=f"count must be positive, got {count}"):
            capture_trace(path, stream, count)
        assert not path.exists()


class TestStats:
    def test_stats_summarise(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, RECORDS)
        stats = trace_stats(path)
        assert stats.records == 3
        assert stats.reads == 2 and stats.writes == 1
        assert stats.distinct_blocks == 2
        assert stats.footprint_bytes == 128
        assert stats.read_fraction == pytest.approx(2 / 3)
        assert stats.mean_gap_ns == pytest.approx(3500 / 3 / 1000)


class TestReplayStreams:
    def test_round_robin_split(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, RECORDS)
        streams = trace_streams(path, cores=2)
        a = list(itertools.islice(streams[0], 2))
        b = list(itertools.islice(streams[1], 1))
        assert a == [RECORDS[0], RECORDS[2]]
        assert b == [RECORDS[1]]

    def test_streams_wrap_for_long_quanta(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, RECORDS)
        stream = trace_streams(path, cores=1)[0]
        taken = list(itertools.islice(stream, 7))
        assert taken[:3] == RECORDS and taken[3:6] == RECORDS

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing here\n")
        with pytest.raises(WorkloadError):
            trace_streams(path, cores=2)

    def test_invalid_core_count_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, RECORDS)
        with pytest.raises(WorkloadError):
            trace_streams(path, cores=0)
