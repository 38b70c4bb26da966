"""A DRAM channel device: buses + banks + refresh, with issue planning.

One :class:`DramChannel` models a single independent channel (TDRAM
turns each HBM3 pseudo-channel into one, §III-B): an 8-bit CA bus, a
32-bit DQ bus, optionally a 4-bit HM bus plus tag banks (TDRAM/NDC),
sixteen logical (pair-scheduled) data banks, and an all-bank refresh
engine.

Issue planning asks for the earliest time every needed resource (CA
slot, bank, activation window, DQ slot at its fixed offset, tag bank,
HM slot) is simultaneously available. Each resource keeps that floor as
a plain attribute which only its own mutators move, so the answer is a
max over attribute reads. Controllers then commit the plan, which
reserves the resources and returns the grant times.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional

from repro.dram.bank import ActivationWindow, Bank
from repro.dram.bus import Bus, DataBus, Direction
from repro.dram.timing import DramTiming, TagTiming
from repro.errors import ConfigError, ProtocolError
from repro.sim.kernel import Simulator, ns

HM_BUS_WIDTH_BITS = 4
HM_PACKET_BYTES = 3
#: one HM-bus beat at the full 8 Gb/s data rate
HM_BEAT_TIME = ns(0.125)


def packet_beats(payload_bytes: int = HM_PACKET_BYTES,
                 bus_width_bits: int = HM_BUS_WIDTH_BITS) -> int:
    """Number of HM-bus beats for a payload ("6 for 3 B metadata")."""
    if payload_bytes <= 0 or bus_width_bits <= 0:
        raise ConfigError("payload and width must be positive")
    bits = payload_bytes * 8
    return -(-bits // bus_width_bits)


#: HM packet: 3 B of tag/metadata over the 4-bit bus, 6 beats of 125 ps
#: ("e.g. 6 [beats] for 3B metadata", §III-B) -> 0.75 ns.
HM_PACKET_TIME = packet_beats() * HM_BEAT_TIME


class AccessGrant(NamedTuple):
    """Committed resource grants for one DRAM access.

    The issue methods build it with ``tuple.__new__``, skipping the
    generated Python ``__new__``.
    """

    issue: int                 #: command slot start on the CA bus
    data_start: Optional[int]  #: first data beat on DQ (None if no transfer)
    data_end: Optional[int]    #: end of the DQ burst
    hm_at: Optional[int]       #: HM result arrival at the controller
    bank: int


#: builds a NamedTuple without its generated Python ``__new__`` (typed
#: loosely: the checker types ``tuple.__new__`` as returning a tuple)
_new_tuple: Callable[..., Any] = tuple.__new__
# Read per access, as module globals: an attribute read on an enum
# class costs about ten times a global read.
_READ = Direction.READ
_WRITE = Direction.WRITE


class DramChannel:
    """One independent DRAM channel with optional tag path."""

    def __init__(
        self,
        sim: Simulator,
        timing: DramTiming,
        n_banks: int,
        name: str = "ch",
        tag_timing: Optional[TagTiming] = None,
        enable_refresh: bool = True,
        page_policy: str = "close",
        refresh_policy: str = "all_bank",
    ) -> None:
        if page_policy not in ("close", "open"):
            raise ProtocolError(f"unknown page policy {page_policy!r}")
        if refresh_policy not in ("all_bank", "per_bank"):
            raise ProtocolError(f"unknown refresh policy {refresh_policy!r}")
        self.sim = sim
        self.timing = timing
        self.tag_timing = tag_timing
        #: command-to-data offsets and bank occupancy of the fused
        #: close-page commands
        self._read_data_delay = timing.read_data_delay
        self._write_data_delay = timing.write_data_delay
        self._read_bank_busy = timing.read_bank_busy
        self._write_bank_busy = timing.write_bank_busy
        #: DQ burst length of one 64 B block
        self._burst64 = self._burst(64)
        #: command-to-HM-result delay (0 without a tag path)
        self._hm_result_delay = (0 if tag_timing is None
                                 else tag_timing.hm_result_delay)
        self.page_policy = page_policy
        self.refresh_policy = refresh_policy
        self._refresh_cursor = 0
        self.name = name
        self.ca = Bus(f"{name}.ca")
        self.dq = DataBus(f"{name}.dq", timing.tRTW, timing.tWTR)
        self.banks: List[Bank] = [Bank(i) for i in range(n_banks)]
        self.act_window = ActivationWindow(
            timing.tRRD, timing.tXAW, timing.activates_per_window
        )
        self.hm: Optional[Bus] = None
        self.tag_banks: List[Bank] = []
        self.tag_act_window: Optional[ActivationWindow] = None
        if tag_timing is not None:
            self.hm = Bus(f"{name}.hm")
            self.tag_banks = [Bank(i) for i in range(n_banks)]
            self.tag_act_window = ActivationWindow(tag_timing.tRRD_TAG, 0, 1)
        # Refresh bookkeeping.
        self.refresh_listeners: List[Callable[[int, int], None]] = []
        self.refreshes = 0
        #: attached command observers (logging / protocol checking)
        self.observers: List = []
        # Traffic counters, which the energy meter prices with the bus
        # grants: DQ bytes, data-bank activates and column operations.
        self.bytes_read = 0
        self.bytes_written = 0
        self.activates = 0
        self.column_ops = 0
        #: bumped by each method that changes bank, bus or activation-
        #: window state: a scheduler's blocked decision made at the same
        #: instant and version still holds
        self.version = 0
        if enable_refresh and timing.tREFI > 0:
            first = timing.tREFI
            if refresh_policy == "per_bank":
                first = max(1, timing.tREFI // n_banks)
            self.sim.at(first, self._do_refresh)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _do_refresh(self) -> None:
        """Refresh per the configured policy; DQ stays free either way.

        * ``all_bank`` — every bank blocked for the full tRFC. The DQ
          bus is *not* blocked: TDRAM exploits these windows to stream
          flush-buffer entries to the controller (§III-D2), and in the
          baselines nothing can use DQ anyway since no column command
          can issue.
        * ``per_bank`` — one bank refreshed per tREFI tick in rotation
          (tRFC scaled down by the bank count): demand accesses to the
          other banks continue, so tail latency improves, but no
          channel-wide DQ-idle window exists for opportunistic unloads.
        """
        start = self.sim.now
        self.version += 1
        if self.refresh_policy == "all_bank":
            end = start + self.timing.tRFC
            for bank in self.banks:
                bank.block_until(end)
                bank.close_row()
            for bank in self.tag_banks:
                bank.block_until(end)
            self._notify("refresh", -1, start)
            for listener in self.refresh_listeners:
                listener(start, end)
        else:
            per_bank_rfc = max(1, self.timing.tRFC // len(self.banks))
            index = self._refresh_cursor % len(self.banks)
            self._refresh_cursor += 1
            end = start + per_bank_rfc
            self.banks[index].block_until(end)
            self.banks[index].close_row()
            if self.tag_banks:
                self.tag_banks[index].block_until(end)
            self._notify("refresh", index, start)
            # No refresh_listeners callback: there is no channel-wide
            # DQ-idle window to exploit.
        self.refreshes += 1
        interval = self.timing.tREFI
        if self.refresh_policy == "per_bank":
            interval = max(1, interval // len(self.banks))
        self.sim.at(start + interval, self._do_refresh)

    def _notify(self, command: str, bank: int, at: int,
                data_start: Optional[int] = None,
                data_end: Optional[int] = None) -> None:
        if not self.observers:
            return
        from repro.dram.monitor import CommandRecord

        record = CommandRecord(time_ps=at, command=command, bank=bank,
                               data_start=data_start, data_end=data_end)
        for observer in self.observers:
            observer.on_command(record)

    # ------------------------------------------------------------------
    # Issue planning
    # ------------------------------------------------------------------
    def earliest_issue(
        self,
        bank: int,
        at: int,
        is_write: bool,
        with_data: bool = True,
        with_tag: bool = False,
    ) -> int:
        """Earliest legal command-issue instant at or after ``at``.

        Every constraint has the form ``max(t, floor)`` where the floor
        does not depend on ``t`` and the resource that owns it keeps it
        current, so the answer is one max over floor reads: the DQ and
        HM floors minus their fixed command offsets, the others as they
        are. This is the hottest function in the simulator (one call per
        scheduler decision per channel), hence the manual comparisons
        instead of one big ``max(...)`` call.
        """
        t = self.ca.free_at
        if at > t:
            t = at
        v = self.banks[bank].ready_at
        if v > t:
            t = v
        v = self.act_window.floor
        if v > t:
            t = v
        if with_data:
            if is_write:
                v = self.dq.write_floor - self._write_data_delay
            else:
                v = self.dq.read_floor - self._read_data_delay
            if v > t:
                t = v
        if with_tag and self.tag_timing is not None:
            assert self.tag_act_window is not None and self.hm is not None
            v = self.tag_banks[bank].ready_at
            if v > t:
                t = v
            v = self.tag_act_window.floor
            if v > t:
                t = v
            v = self.hm.free_at - self._hm_result_delay
            if v > t:
                t = v
        return t

    def issue_access(
        self,
        bank: int,
        at: int,
        is_write: bool,
        with_data: bool = True,
        with_tag: bool = False,
        data_bytes: int = 64,
        hm_result_delay: Optional[int] = None,
        column_op: bool = True,
        transfer: bool = True,
    ) -> AccessGrant:
        """Commit one access starting its command at exactly ``at``.

        ``at`` must come from :meth:`earliest_issue` (or be otherwise
        legal); resources are reserved and the grant returned.

        Parameters
        ----------
        with_data:
            Reserve a DQ burst slot at the command's fixed data offset.
        with_tag:
            Also activate the tag mats and book an HM-bus slot.
        hm_result_delay:
            Override the issue->HM delay (NDC ties the result to the
            column operation instead of the activation).
        column_op:
            Count a data-bank column operation (TDRAM gates it, §III-D1).
        transfer:
            Whether data actually moves in the reserved slot. TDRAM's
            conditional column operation keeps the slot (command timing
            is fixed) but drives no data on a read-miss-clean (§III-D1),
            freeing the slot for a flush-buffer unload.
        """
        timing = self.timing
        self.version += 1
        self.ca.reserve(at, timing.tCMD)
        busy = self._write_bank_busy if is_write else self._read_bank_busy
        self.banks[bank].reserve(at, busy)
        self.act_window.record(at)
        self.activates += 1
        self.column_ops += column_op
        data_start = data_end = None
        if with_data:
            if is_write:
                offset = self._write_data_delay
                direction = _WRITE
            else:
                offset = self._read_data_delay
                direction = _READ
            burst = (self._burst64 if data_bytes == 64
                     else self._burst(data_bytes))
            data_start = at + offset
            data_end = self.dq.reserve_dir(data_start, burst, direction)
            if transfer:
                if is_write:
                    self.bytes_written += data_bytes
                else:
                    self.bytes_read += data_bytes
        hm_at = None
        if with_tag and self.tag_timing is not None:
            assert self.tag_act_window is not None and self.hm is not None
            self.tag_banks[bank].reserve(at, self.tag_timing.tRC_TAG)
            self.tag_act_window.record(at)
            delay = (self._hm_result_delay if hm_result_delay is None
                     else hm_result_delay)
            hm_slot = self.hm.earliest(at + delay)
            self.hm.reserve(hm_slot, HM_PACKET_TIME)
            hm_at = hm_slot + HM_PACKET_TIME
        if self.observers:
            name = ("act_wr" if is_write else "act_rd") if with_tag else (
                "write" if is_write else "read")
            self._notify(name, bank, at, data_start, data_end)
        return _new_tuple(AccessGrant, (at, data_start, data_end, hm_at, bank))

    def _burst(self, data_bytes: int) -> int:
        """DQ burst length that moves ``data_bytes`` (tBURST per 64 B)."""
        return max(1, int(round(self.timing.tBURST * data_bytes / 64)))

    # ------------------------------------------------------------------
    # Open-page accesses (the DDR5 backing store)
    # ------------------------------------------------------------------
    def is_row_hit(self, bank: int, row: int) -> bool:
        """Whether ``row`` is the open row of ``bank`` (open-page)."""
        return self.banks[bank].open_row == row

    def _open_data_offset(self, bank: int, row: int, is_write: bool) -> int:
        """Command-to-data delay given the bank's current row state."""
        timing = self.timing
        cas = timing.tCWL if is_write else timing.tCL
        state = self.banks[bank].open_row
        if state == row:
            return cas                                  # row hit: CAS only
        if state < 0:
            return timing.tRCD + cas                    # closed: ACT + CAS
        return timing.tRP + timing.tRCD + cas           # conflict: PRE+ACT+CAS

    def earliest_issue_open(self, bank: int, at: int, row: int,
                            is_write: bool) -> int:
        """Open-page analogue of :meth:`earliest_issue`.

        A row hit needs the CA slot, the bank and the DQ slot at the CAS
        offset; a row change also needs the activation window, and a
        row conflict the implicit precharge. Every floor is
        ``t``-independent, so one max gives the answer.
        """
        b = self.banks[bank]
        t = self.ca.free_at
        if at > t:
            t = at
        v = b.ready_at
        if v > t:
            t = v
        if b.open_row != row:
            v = self.act_window.floor
            if v > t:
                t = v
            if b.open_row >= 0:
                # The implicit precharge obeys tRAS and tWR.
                v = b.precharge_not_before
                if v > t:
                    t = v
        floor = self.dq.write_floor if is_write else self.dq.read_floor
        v = floor - self._open_data_offset(bank, row, is_write)
        if v > t:
            t = v
        return t

    def issue_access_open(self, bank: int, at: int, row: int, is_write: bool,
                          data_bytes: int = 64) -> AccessGrant:
        """Commit one open-page access (row left open afterwards).

        Returns the grant; ``data_start`` reflects the row-hit (CAS
        only), row-closed (ACT+CAS), or row-conflict (PRE+ACT+CAS) path.
        """
        timing = self.timing
        b = self.banks[bank]
        hit = b.open_row == row
        offset = self._open_data_offset(bank, row, is_write)
        self.version += 1
        self.ca.reserve(at, timing.tCMD)
        if not hit:
            act_at = at if b.open_row < 0 else at + timing.tRP
            self.act_window.record(at)
            self.activates += 1
            b.activated_at = act_at
            b.open_row = row
        self.column_ops += 1
        direction = _WRITE if is_write else _READ
        burst = self._burst64 if data_bytes == 64 else self._burst(data_bytes)
        data_start = at + offset
        data_end = self.dq.reserve_dir(data_start, burst, direction)
        # Next command to this bank: one column-to-column gap after our
        # CAS; a future row change additionally waits for tRAS/tWR.
        cas_time = data_start - (timing.tCWL if is_write else timing.tCL)
        b.set_ready(cas_time + timing.tCCD_L)
        recovery = data_end + (timing.tWR if is_write else 0)
        b.precharge_not_before = max(b.activated_at + timing.tRAS, recovery)
        if is_write:
            self.bytes_written += data_bytes
        else:
            self.bytes_read += data_bytes
        self._notify("write" if is_write else "read", bank, at,
                     data_start, data_end)
        return _new_tuple(AccessGrant, (at, data_start, data_end, None, bank))

    # ------------------------------------------------------------------
    # Tag-only probes (TDRAM early tag probing, §III-E)
    # ------------------------------------------------------------------
    def probe_slot_free(self, at: int) -> bool:
        """The bank-independent terms of :meth:`can_probe`: whether the
        CA bus, the tag activation window and the HM slot are all free
        at ``at``. While this is False, no bank can take a probe."""
        if self.tag_timing is None:
            return False
        assert self.tag_act_window is not None and self.hm is not None
        return (
            at >= self.ca.free_at
            and at >= self.tag_act_window.floor
            and at + self._hm_result_delay >= self.hm.free_at
        )

    def can_probe(self, bank: int, at: int) -> bool:
        """Whether a tag-only probe could issue exactly at ``at``.

        Probes only fill *otherwise unused* slots: the CA bus, the tag
        bank, the tag activation window, and the HM slot must all be
        immediately free, so a probe never delays a MAIN command.
        """
        return (self.probe_slot_free(at)
                and at >= self.tag_banks[bank].ready_at)

    def issue_probe(self, bank: int, at: int) -> AccessGrant:
        """Issue a tag-only probe; returns a grant with only ``hm_at``."""
        if self.tag_timing is None:
            raise ProtocolError(f"{self.name}: probes need a tag path")
        assert self.tag_act_window is not None and self.hm is not None
        self.version += 1
        self.ca.reserve(at, self.timing.tCMD)
        self.tag_banks[bank].reserve(at, self.tag_timing.tRC_TAG)
        self.tag_act_window.record(at)
        hm_slot = self.hm.earliest(at + self._hm_result_delay)
        self.hm.reserve(hm_slot, HM_PACKET_TIME)
        self._notify("probe", bank, at)
        return _new_tuple(AccessGrant,
                          (at, None, None, hm_slot + HM_PACKET_TIME, bank))

    # ------------------------------------------------------------------
    # Raw DQ grants (flush-buffer unloads, NDC's RES command)
    # ------------------------------------------------------------------
    def transfer_raw(self, at: int, data_bytes: int, direction: Direction) -> int:
        """Move ``data_bytes`` on DQ without touching banks; returns end."""
        self.version += 1
        start = self.dq.earliest_dir(at, direction)
        burst = self._burst64 if data_bytes == 64 else self._burst(data_bytes)
        end = self.dq.reserve_dir(start, burst, direction)
        if direction is _READ:
            self.bytes_read += data_bytes
        else:
            self.bytes_written += data_bytes
        self._notify(
            "raw_read" if direction is _READ else "raw_write",
            -1, start, start, end,
        )
        return end
