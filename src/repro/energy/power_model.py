"""Per-operation energy model for the memory subsystem (Fig. 13, §V-C).

The paper builds an HBM3 power model from HBM2 data [55] scaled to HBM3
speeds, notes that ~62.6 % of HBM power goes to moving data between the
DRAM core and the controller [10], and adds overheads for the tag mats,
the HM bus, and the extra signals. Absolute joules are proprietary, so
this model uses public-ballpark per-operation energies chosen to
reproduce that *structure*:

* energy is dominated by bytes moved on the DQ bus (so designs' energy
  ratios track their bandwidth-bloat ratios, as in Table IV -> Fig 13);
* activates are a smaller, second-order term (TDRAM's extra tag-mat
  activates "increase power slightly, but it is small compared to data
  transfer", §V-C);
* a runtime-proportional background term (refresh, clocking, PHY) makes
  energy = power x runtime reward faster designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List

if TYPE_CHECKING:
    from repro.dram.device import DramChannel


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energies (pJ) and background power (W)."""

    act_data_pj: float = 1200.0      #: paired-bank activate (2 x 1 KiB rows)
    act_tag_pj: float = 200.0        #: tag-mat activate (4 small mats, §III-C5)
    col_op_pj: float = 300.0         #: internal column read/write of 64 B
    dq_pj_per_bit: float = 6.0       #: core<->controller data movement
    hm_packet_pj: float = 144.0      #: 24-bit HM packet at DQ energy/bit
    cmd_pj: float = 20.0             #: one CA command slot
    background_w_per_channel: float = 0.08
    tag_background_factor: float = 0.10  #: extra background for tag mats/HM PHY

    def dq_bytes_pj(self, n_bytes: int) -> float:
        return n_bytes * 8 * self.dq_pj_per_bit


#: What an :class:`EnergyMeter` counts, in the order it adds the terms:
#: DQ bytes, then each op priced at ``EnergyModel.<op>_pj``.
ENERGY_COUNTERS = ("dq_bytes", "act_data", "act_tag", "col_op", "hm_packet",
                   "cmd")


class EnergyMeter:
    """Prices the work a run committed and integrates energy.

    Attached channels count the commands they commit; :meth:`reset`
    snapshots those counts at the warm-up boundary, and the meter prices
    the difference plus the work :meth:`record` / :meth:`add_dq_bytes`
    add for commands no channel carries.
    """

    def __init__(self, model: EnergyModel, channels: int, has_tag_path: bool) -> None:
        self.model = model
        self.channels = channels
        self.has_tag_path = has_tag_path
        self.devices: List["DramChannel"] = []
        self.reset()

    def attach(self, devices: Iterable["DramChannel"]) -> None:
        """Price the commands ``devices`` commit; attach before they issue."""
        self.devices.extend(devices)

    def record(self, op: str, count: int = 1) -> None:
        if op not in ENERGY_COUNTERS[1:]:
            raise ValueError(f"unknown energy op {op!r}")
        self._offset[op] += count

    def add_dq_bytes(self, n_bytes: int) -> None:
        self._offset["dq_bytes"] += n_bytes

    def _device_counts(self) -> Dict[str, int]:
        tally = dict.fromkeys(ENERGY_COUNTERS, 0)
        for channel in self.devices:
            hm_packets = channel.hm.grants if channel.hm is not None else 0
            tally["dq_bytes"] += channel.bytes_read + channel.bytes_written
            tally["act_data"] += channel.activates
            tally["act_tag"] += hm_packets
            tally["col_op"] += channel.column_ops
            tally["hm_packet"] += hm_packets
            tally["cmd"] += channel.ca.grants
        return tally

    @property
    def ops(self) -> Dict[str, int]:
        """Each op's count since the last reset."""
        now = self._device_counts()
        return {op: now[op] + self._offset[op] for op in ENERGY_COUNTERS[1:]}

    @property
    def dq_bytes(self) -> int:
        """Bytes moved on DQ since the last reset."""
        return self._device_counts()["dq_bytes"] + self._offset["dq_bytes"]

    def dynamic_pj(self) -> float:
        total = 0.0  # added left to right: sum() rounds otherwise on 3.12+
        for part in self.breakdown_pj().values():
            total += part
        return total

    def breakdown_pj(self, runtime_ps: int = 0) -> Dict[str, float]:
        """Energy by component (data movement, activates, …, background).

        The shares make the paper's data-movement-dominates observation
        ([10]: ~62.6 % of HBM power) inspectable per run.
        """
        parts: Dict[str, float] = {
            "data_movement": self.model.dq_bytes_pj(self.dq_bytes),
        }
        for op, count in self.ops.items():
            parts[op] = count * getattr(self.model, f"{op}_pj")
        if runtime_ps:
            parts["background"] = self.background_w() * runtime_ps
        return parts

    def background_w(self) -> float:
        power = self.model.background_w_per_channel * self.channels
        if self.has_tag_path:
            power *= 1.0 + self.model.tag_background_factor
        return power

    def total_pj(self, runtime_ps: int) -> float:
        """Dynamic + background energy over ``runtime_ps`` picoseconds.

        1 W x 1 ps = 1 pJ, so the unit algebra is direct.
        """
        if runtime_ps < 0:
            raise ValueError("runtime must be non-negative")
        return self.dynamic_pj() + self.background_w() * runtime_ps

    def reset(self) -> None:
        """Start a measured region: drop the records, and count the
        channels from their current totals (held as negative offsets)."""
        self._offset = {name: -count
                        for name, count in self._device_counts().items()}
