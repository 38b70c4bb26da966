"""Demand-trace recording and replay.

The paper drives gem5 with real binaries; downstream users of this
library often have *memory traces* instead (from Pin, DynamoRIO, or a
prior simulation). This module defines a simple portable trace format
and the glue to replay a trace file through the experiment runner:

* one record per line: ``<gap_ps> <R|W> <block_addr> [pc]``;
* ``#``-prefixed comment lines and blank lines are ignored;
* ``.gz`` paths are compressed transparently.

:func:`capture_trace` snapshots any generator (e.g. a suite workload)
into a file; :func:`trace_streams` replays a file as per-core demand
streams, splitting records round-robin or by a recorded core column.
"""

from __future__ import annotations

import gzip
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.cache.request import Op
from repro.errors import WorkloadError
from repro.workloads.base import DemandRecord

_OP_CODES = {"R": Op.READ, "W": Op.WRITE}
_OP_NAMES = {Op.READ: "R", Op.WRITE: "W"}


@dataclass(frozen=True)
class TraceStats:
    """Summary of a trace file."""

    records: int
    reads: int
    writes: int
    distinct_blocks: int
    total_gap_ps: int

    @property
    def read_fraction(self) -> float:
        return self.reads / self.records if self.records else 0.0

    @property
    def footprint_bytes(self) -> int:
        return self.distinct_blocks * 64

    @property
    def mean_gap_ns(self) -> float:
        return self.total_gap_ps / self.records / 1000 if self.records else 0.0


def _open(path: Union[str, Path], mode: str) -> IO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_trace(path: Union[str, Path],
                records: Iterable[DemandRecord],
                header: Optional[str] = None) -> int:
    """Write demand records to ``path``; returns the record count."""
    count = 0
    with _open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for gap, op, block, pc in records:
            handle.write(f"{gap} {_OP_NAMES[op]} {block} {pc}\n")
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> Iterator[DemandRecord]:
    """Stream demand records from a trace file."""
    with _open(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (3, 4):
                raise WorkloadError(
                    f"{path}:{line_no}: expected 'gap R|W block [pc]', "
                    f"got {line!r}"
                )
            try:
                gap = int(parts[0])
                op = _OP_CODES[parts[1].upper()]
                block = int(parts[2])
                pc = int(parts[3]) if len(parts) == 4 else 0
            except (ValueError, KeyError) as exc:
                raise WorkloadError(f"{path}:{line_no}: bad record: {exc}")
            if gap < 0 or block < 0:
                raise WorkloadError(f"{path}:{line_no}: negative field")
            yield gap, op, block, pc


def capture_trace(path: Union[str, Path],
                  stream: Iterator[DemandRecord],
                  count: int,
                  header: Optional[str] = None) -> int:
    """Snapshot ``count`` records of any demand generator into a file."""
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    return write_trace(path, itertools.islice(stream, count), header=header)


def trace_stats(path: Union[str, Path]) -> TraceStats:
    """One pass over a trace collecting its summary statistics."""
    records = reads = 0
    blocks = set()
    total_gap = 0
    for gap, op, block, _pc in read_trace(path):
        records += 1
        if op is Op.READ:
            reads += 1
        blocks.add(block)
        total_gap += gap
    return TraceStats(records=records, reads=reads, writes=records - reads,
                      distinct_blocks=len(blocks), total_gap_ps=total_gap)


def trace_streams(path: Union[str, Path], cores: int) -> List[Iterator[DemandRecord]]:
    """Split one trace into per-core replay streams (round-robin).

    The whole trace is materialised once (traces are finite, unlike the
    synthetic generators); each core replays its interleaved slice with
    gaps preserved.
    """
    if cores <= 0:
        raise WorkloadError("cores must be positive")
    all_records = list(read_trace(path))
    if not all_records:
        raise WorkloadError(f"{path}: empty trace")

    def slice_for(core: int) -> Iterator[DemandRecord]:
        own = all_records[core::cores]
        # Replay wraps so a fixed work quantum larger than the slice
        # still completes (the runner decides how many demands to use).
        return itertools.cycle(own) if own else iter(())

    return [slice_for(core) for core in range(cores)]
