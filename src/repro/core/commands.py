"""TDRAM command set and timing-transaction walks (Figs. 5-7).

TDRAM adds two fused commands to HBM3 — ``ActRd`` and ``ActWr`` — that
carry row + column + tag address and drive the tag and data banks in
lockstep with auto-precharge (§III-D), plus the tag-only ``Probe``
(§III-E) and an explicit ``FlushRd`` to drain the flush buffer.

:func:`walk_read`, :func:`walk_write` and :func:`walk_probe` reproduce
the papers' timing diagrams as event lists, and are what the timing
unit tests pin down (e.g. HM precedes data by ``tRCD + tCL - tRCD_TAG
- tHM`` on a read).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.dram.timing import DramTiming, TagTiming
from repro.sim.kernel import to_ns


class Command(enum.Enum):
    """TDRAM CA-bus command encodings (beyond the HBM3 base set)."""

    ACT_RD = "ActRd"      #: fused activate + conditional column read
    ACT_WR = "ActWr"      #: fused activate + column write
    PROBE = "Probe"       #: tag-only access; result on the HM bus
    FLUSH_RD = "FlushRd"  #: explicit read-from-flush-buffer


@dataclass(frozen=True)
class TimingEvent:
    """One labelled instant in a command's timing transaction."""

    label: str
    time_ps: int

    @property
    def time_ns(self) -> float:
        """The instant in nanoseconds."""
        return to_ns(self.time_ps)


def walk_read(timing: DramTiming, tag: TagTiming, hit: bool) -> List[TimingEvent]:
    """Fig. 5: the timing transaction of an ``ActRd``.

    Returns the labelled instants relative to command issue at t=0.
    On a miss to a clean line the data burst does not occur.
    """
    events = [
        TimingEvent("ActRd issued (CA bus)", 0),
        TimingEvent("tag mats sensed", tag.tRCD_TAG),
        TimingEvent("HM result at data-bank column decoders",
                    tag.tRCD_TAG + tag.tHM_int),
        TimingEvent("HM result at controller", tag.tRCD_TAG + tag.tHM),
        TimingEvent("data banks sensed (tRCD)", timing.tRCD),
    ]
    if hit:
        start = timing.tRCD + timing.tCL
        events.append(TimingEvent("data burst starts (DQ)", start))
        events.append(TimingEvent("data burst ends", start + timing.tBURST))
    else:
        events.append(TimingEvent("column decode gated off (no DQ data)",
                                  timing.tRCD))
    return sorted(events, key=lambda e: e.time_ps)


def walk_write(timing: DramTiming, tag: TagTiming, miss_dirty: bool) -> List[TimingEvent]:
    """Fig. 6: the timing transaction of an ``ActWr``.

    On a write-miss-dirty an internal read (``tRL_core``) moves the
    conflicting dirty line into the flush buffer before the internal
    write command commits the new data.
    """
    events = [
        TimingEvent("ActWr issued (CA bus)", 0),
        TimingEvent("tag mats sensed", tag.tRCD_TAG),
        TimingEvent("HM result at data banks", tag.tRCD_TAG + tag.tHM_int),
        TimingEvent("HM result at controller", tag.tRCD_TAG + tag.tHM),
        TimingEvent("write data on DQ", timing.tRCD_WR + timing.tCWL),
    ]
    internal_write = timing.tRCD_WR + timing.tCWL + timing.tBURST
    if miss_dirty:
        internal_read = tag.tRCD_TAG + tag.tHM_int
        events.append(TimingEvent("internal read of dirty line (to flush buffer)",
                                  internal_read + timing.tRL_core))
        internal_write = max(
            internal_write,
            internal_read + timing.tRL_core + timing.tRTW_int,
        )
    events.append(TimingEvent("internal write commits new data", internal_write))
    return sorted(events, key=lambda e: e.time_ps)


def walk_probe(tag: TagTiming) -> List[TimingEvent]:
    """Fig. 7: a tag-only probe in an unused CA/HM slot."""
    return [
        TimingEvent("Probe issued (CA bus)", 0),
        TimingEvent("tag mats sensed", tag.tRCD_TAG),
        TimingEvent("HM result at controller", tag.tRCD_TAG + tag.tHM),
        TimingEvent("tag bank precharged", tag.tRC_TAG),
    ]


def hm_precedes_data_by(timing: DramTiming, tag: TagTiming) -> int:
    """How far the HM result precedes the first read-data beat (ps).

    Positive by design: Table III gives ``tRCD_TAG + tHM = 15 ns``
    against ``tRCD + tCL = 30 ns``, enabling the conditional response.
    """
    return (timing.tRCD + timing.tCL) - (tag.tRCD_TAG + tag.tHM)
