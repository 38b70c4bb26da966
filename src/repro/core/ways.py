"""Set-associative tag-path models (§V-F and Table I).

§V-F: "if pairs of bank groups form two ways of a set, tag comparisons
can be performed in parallel if each way has its own comparator. …
Implementations without in-DRAM tag comparators send all tags in the
set to the controller, and the controller subsequently sends a request
for the proper column to the DRAM, incurring extra latency and energy."

Two models:

* **in-DRAM** (TDRAM's choice): one comparator per way operates in
  parallel during activation; the HM bus carries one result packet and
  the matching way's column is selected internally. Zero extra latency
  over direct-mapped; energy grows only with the per-way comparators.
* **controller-side**: the DRAM streams all W tags to the controller
  (W HM packets), the controller compares and issues a follow-up
  column command — adding bus-transfer, compare, and command latency
  to every access, scaling with associativity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.device import HM_PACKET_TIME
from repro.dram.timing import DramTiming, TagTiming
from repro.errors import ConfigError
from repro.sim.kernel import ns

#: Controller-side tag compare latency (one controller clock).
CONTROLLER_COMPARE_TIME = ns(1)


@dataclass(frozen=True)
class WaySelectModel:
    """Per-access overhead of one way-selection implementation."""

    name: str                 #: "in_dram" or "controller"
    ways: int
    extra_hm_time: int        #: additional HM-bus occupancy (ps)
    extra_result_delay: int   #: added to the hit/miss-known instant (ps)
    extra_data_delay: int     #: added before data can stream (ps)
    extra_energy_pj: float    #: per access

    @property
    def total_latency_overhead(self) -> int:
        """Latency added to an access (ps): result plus data delay."""
        return self.extra_result_delay + self.extra_data_delay


def in_dram_way_select(ways: int, comparator_pj: float = 2.0) -> WaySelectModel:
    """TDRAM's parallel per-way comparators (§V-F).

    The HM packet and the column gating are unchanged from the
    direct-mapped case; only the comparator energy scales with ways.
    """
    if ways < 1:
        raise ConfigError("ways must be >= 1")
    return WaySelectModel(
        name="in_dram",
        ways=ways,
        extra_hm_time=0,
        extra_result_delay=0,
        extra_data_delay=0,
        extra_energy_pj=comparator_pj * (ways - 1),
    )


def controller_way_select(
    ways: int,
    timing: DramTiming,
    tag: TagTiming,
    hm_packet_time: int = HM_PACKET_TIME,
    hm_transfer_pj_per_packet: float = 144.0,
) -> WaySelectModel:
    """Tags shipped to the controller, compared there, column re-issued.

    Latency added per access:

    * ``(ways - 1)`` extra HM packets to stream every way's tag;
    * the controller compare;
    * a follow-up column command (one CA slot) whose column access can
      no longer overlap the activation — the data path waits for the
      round trip instead of being gated internally at ``tHM_int``.
    """
    if ways < 1:
        raise ConfigError("ways must be >= 1")
    extra_hm = (ways - 1) * hm_packet_time
    result_delay = extra_hm + CONTROLLER_COMPARE_TIME
    # The internal gating at tRCD_TAG + tHM_int is replaced by waiting
    # for the controller's follow-up command: result delay + command.
    internal_gate = tag.tRCD_TAG + tag.tHM_int
    round_trip = tag.hm_result_delay + result_delay + timing.tCMD
    data_delay = max(0, round_trip - internal_gate)
    return WaySelectModel(
        name="controller",
        ways=ways,
        extra_hm_time=extra_hm,
        extra_result_delay=result_delay,
        extra_data_delay=data_delay,
        extra_energy_pj=hm_transfer_pj_per_packet * (ways - 1),
    )


def way_select_comparison(timing: DramTiming, tag: TagTiming,
                          ways_list=(1, 2, 4, 8, 16)):
    """Rows for the §V-F comparison of the two implementations."""
    rows = []
    for ways in ways_list:
        internal = in_dram_way_select(ways)
        external = controller_way_select(ways, timing, tag)
        rows.append({
            "ways": ways,
            "in_dram_latency_ns": internal.total_latency_overhead / 1000,
            "controller_latency_ns": external.total_latency_overhead / 1000,
            "in_dram_energy_pj": internal.extra_energy_pj,
            "controller_energy_pj": external.extra_energy_pj,
        })
    return rows
