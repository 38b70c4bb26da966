"""TDRAM device internals — the paper's primary contribution.

Tag mats, HM-bus packets, the fused command set, the flush buffer,
early-tag-probing policy, and the area/pin overhead models.
"""

from repro.core.area import AreaReport, SignalReport, die_area_report, signal_report
from repro.core.commands import (
    Command,
    TimingEvent,
    hm_precedes_data_by,
    walk_probe,
    walk_read,
    walk_write,
)
from repro.core.ecc import secded_check_bits, tag_ecc_fits_budget
from repro.core.flush_buffer import FlushBuffer
from repro.core.hm_bus import packet_beats, tag_bits_for
from repro.core.probe import ProbeEngine
from repro.core.ways import (
    WaySelectModel,
    controller_way_select,
    in_dram_way_select,
    way_select_comparison,
)
from repro.core.tag_mats import (
    TagMatLayout,
    flush_move_safe,
    internal_result_hidden,
    layout_for,
    tag_check_speed_ratio,
)

__all__ = [
    "AreaReport",
    "SignalReport",
    "die_area_report",
    "signal_report",
    "Command",
    "TimingEvent",
    "hm_precedes_data_by",
    "walk_probe",
    "walk_read",
    "walk_write",
    "secded_check_bits",
    "tag_ecc_fits_budget",
    "FlushBuffer",
    "packet_beats",
    "tag_bits_for",
    "ProbeEngine",
    "WaySelectModel",
    "controller_way_select",
    "in_dram_way_select",
    "way_select_comparison",
    "TagMatLayout",
    "flush_move_safe",
    "internal_result_hidden",
    "layout_for",
    "tag_check_speed_ratio",
]
