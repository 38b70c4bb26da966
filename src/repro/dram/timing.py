"""DRAM timing parameter sets.

The values mirror Table III of the paper ("same for all evaluated DRAM
cache designs"), expressed in nanoseconds and converted once to integer
picoseconds. A second block carries the tag-mat timings used only by
TDRAM and NDC: §IV-A gives both the same mats, and NDC's controller
derives its later, column-time result from them.

Parameters the table omits but a timing model needs (write recovery,
DQ-bus turnaround, refresh interval) are filled with JEDEC-typical
values and documented inline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, TimingError
from repro.sim.kernel import ns


@dataclass(frozen=True)
class TagTiming:
    """Timings of TDRAM's small low-latency tag mats (§III-C4, Table III).

    All values are integer picoseconds.
    """

    tRCD_TAG: int = ns(7.5)   #: tag-mat activate-to-column delay
    tHM: int = ns(7.5)        #: tag compare + HM-bus transfer to controller
    tHM_int: int = ns(2.5)    #: internal tag-result-to-data-bank delay
    tRTP_TAG: int = ns(2.5)   #: tag read-to-precharge
    tRRD_TAG: int = ns(2)     #: tag-mat activate-to-activate
    tWR_TAG: int = ns(1)      #: tag write recovery
    tRTW_TAG: int = ns(1)     #: tag-mat read-to-write turnaround
    tRC_TAG: int = ns(12)     #: tag-mat row cycle (bank busy per probe)

    @property
    def hm_result_delay(self) -> int:
        """Command issue to HM result available at the controller.

        §III-C4: ``tRCD_TAG + tHM = 15 ns`` matches RLDRAM's read latency.
        """
        return self.tRCD_TAG + self.tHM

    def validate(self) -> None:
        """Check tag-mat timing consistency; raises :class:`TimingError`.

        Called by :class:`~repro.config.system.SystemConfig` at
        construction so a sweep over tag timings cannot silently produce
        a mat that finishes a probe before it started.
        """
        positive = ("tRCD_TAG", "tHM", "tHM_int", "tRTP_TAG", "tRRD_TAG",
                    "tWR_TAG", "tRTW_TAG", "tRC_TAG")
        for name in positive:
            if getattr(self, name) <= 0:
                raise TimingError(
                    f"tag timing {name} must be positive, got "
                    f"{getattr(self, name)} ps")
        if self.tRC_TAG < self.tRCD_TAG:
            raise TimingError(
                f"tag row cycle tRC_TAG ({self.tRC_TAG} ps) cannot be "
                f"shorter than its activate delay tRCD_TAG "
                f"({self.tRCD_TAG} ps)")
        if self.tRC_TAG < self.tRCD_TAG + self.tRTP_TAG:
            raise TimingError(
                f"tag row cycle tRC_TAG ({self.tRC_TAG} ps) cannot be "
                f"shorter than tRCD_TAG + tRTP_TAG "
                f"({self.tRCD_TAG + self.tRTP_TAG} ps)")


@dataclass(frozen=True)
class DramTiming:
    """Data-bank timing parameters (Table III), integer picoseconds.

    The defaults model the HBM3-derived DRAM-cache device; use
    :func:`ddr5_timing` for the DDR5 backing store. ``tBURST`` is the
    time of a 64 B burst: Alloy and BEAR set ``burst_bytes = 80`` on
    their controllers, and the channel scales the burst to match.
    """

    clock_ghz: float = 2.0
    data_rate_gbps: float = 8.0
    tBURST: int = ns(2)       #: 64 B on a 32-bit channel at 8 Gb/s
    tRCD: int = ns(12)        #: activate-to-read column delay
    tRCD_WR: int = ns(6)      #: activate-to-write column delay
    tCCD_L: int = ns(2)       #: column-to-column, same bank group
    tRP: int = ns(14)         #: precharge period
    tRAS: int = ns(28)        #: row active time
    tCL: int = ns(18)         #: read CAS latency
    tCWL: int = ns(7)         #: write CAS latency
    tRRD: int = ns(2)         #: activate-to-activate, different banks
    tXAW: int = ns(16)        #: rolling activation window (activates_per_window activates)
    tRL_core: int = ns(2)     #: internal read latency for flush-buffer moves
    tRTW_int: int = ns(1)     #: internal read-to-write turnaround
    activates_per_window: int = 8
    # -- values not in Table III (JEDEC-typical, documented choices) --
    tWR: int = ns(14)         #: write recovery before precharge
    tRTW: int = ns(4)         #: DQ bus read-to-write turnaround gap
    tWTR: int = ns(8)         #: DQ bus write-to-read turnaround gap
    tCMD: int = ns(1)         #: one command slot on the CA bus
    tREFI: int = ns(3900)     #: refresh interval
    tRFC: int = ns(195)       #: refresh cycle (channel blocked)

    def __post_init__(self) -> None:
        if self.tRAS <= 0 or self.tRP <= 0:
            raise ConfigError("tRAS and tRP must be positive")
        if self.tBURST <= 0:
            raise ConfigError("tBURST must be positive")

    def validate(self) -> None:
        """Check data-bank timing consistency; raises :class:`TimingError`.

        ``__post_init__`` keeps only the cheap always-on positivity
        checks (tests construct partial tables freely);
        :class:`~repro.config.system.SystemConfig` calls this full
        validation once per constructed system, so a bad sweep config
        fails fast with the violated constraint named.
        """
        if self.clock_ghz <= 0 or self.data_rate_gbps <= 0:
            raise TimingError(
                f"bus rates must be positive: clock_ghz={self.clock_ghz}, "
                f"data_rate_gbps={self.data_rate_gbps}")
        positive = ("tBURST", "tRCD", "tRCD_WR", "tCCD_L", "tRP", "tRAS",
                    "tCL", "tCWL", "tRRD", "tXAW", "tRL_core", "tRTW_int",
                    "tWR", "tRTW", "tWTR", "tCMD", "tREFI", "tRFC")
        for name in positive:
            if getattr(self, name) <= 0:
                raise TimingError(
                    f"timing {name} must be positive, got "
                    f"{getattr(self, name)} ps")
        if self.activates_per_window < 1:
            raise TimingError(
                f"activates_per_window must be >= 1, got "
                f"{self.activates_per_window}")
        if self.tRCD > self.tRAS:
            raise TimingError(
                f"tRCD ({self.tRCD} ps) cannot exceed tRAS "
                f"({self.tRAS} ps): a row must stay open at least until "
                "its column access is allowed")
        if self.tRCD_WR > self.tRAS:
            raise TimingError(
                f"tRCD_WR ({self.tRCD_WR} ps) cannot exceed tRAS "
                f"({self.tRAS} ps)")
        if self.tXAW < self.tRRD:
            raise TimingError(
                f"rolling activation window tXAW ({self.tXAW} ps) cannot "
                f"be shorter than one activate gap tRRD ({self.tRRD} ps)")
        if self.tRFC >= self.tREFI:
            raise TimingError(
                f"refresh cycle tRFC ({self.tRFC} ps) must fit inside "
                f"the refresh interval tREFI ({self.tREFI} ps), or the "
                "device never leaves refresh")

    @property
    def tRC(self) -> int:
        """Row cycle: minimum time between activates to one bank."""
        return self.tRAS + self.tRP

    @property
    def read_data_delay(self) -> int:
        """Fused-activate read command to first data beat on DQ."""
        return self.tRCD + self.tCL

    @property
    def write_data_delay(self) -> int:
        """Fused-activate write command to first data beat on DQ."""
        return self.tRCD_WR + self.tCWL

    @property
    def read_bank_busy(self) -> int:
        """Bank occupancy of one close-page read access."""
        return self.tRC

    @property
    def write_bank_busy(self) -> int:
        """Bank occupancy of one close-page write access (with tWR)."""
        return max(self.tRC, self.tRCD_WR + self.tCWL + self.tBURST + self.tWR + self.tRP)


def hbm3_cache_timing() -> DramTiming:
    """Table III timing for the DRAM-cache device (all designs)."""
    return DramTiming()


def ddr5_timing() -> DramTiming:
    """Timing for the DDR5 backing store (Table III: 2 ch x 32 GiB/s).

    DDR5-ish absolute latencies; the 64 B burst occupies 2 ns at the
    32 GiB/s channel rate used in the paper's configuration.
    """
    return DramTiming(
        clock_ghz=2.0,
        data_rate_gbps=8.0,
        tBURST=ns(2),
        tRCD=ns(16),
        tRCD_WR=ns(16),
        tCCD_L=ns(4),
        tRP=ns(16),
        tRAS=ns(32),
        tCL=ns(16),
        tCWL=ns(14),
        tRRD=ns(2),
        tXAW=ns(16),
        tWR=ns(24),
        tRTW=ns(6),
        tWTR=ns(10),
        tREFI=ns(3900),
        tRFC=ns(295),
    )


def rldram_like_tag_timing() -> TagTiming:
    """Tag-mat timings validated against RLDRAM3 (§III-C4)."""
    return TagTiming()
