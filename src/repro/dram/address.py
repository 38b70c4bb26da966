"""Address decomposition for DRAM devices and the DRAM cache.

The paper's controller uses the gem5 ``RoCoRaBaCh`` interleaving (Table
III): reading the physical block address from least- to most-significant
bits gives **Ch**annel, **Ba**nk, **Ra**nk, **Co**lumn, **Ro**w. With a
close-page policy this spreads consecutive cache lines across channels
and banks, maximising bank-level parallelism for streaming access.

All addresses handled here are *block* addresses (byte address divided by
the 64 B block size); the front end performs that division once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.errors import ConfigError

BLOCK_BYTES = 64


@dataclass(frozen=True)
class DramGeometry:
    """Physical organisation of one DRAM device (all channels).

    ``banks_per_channel`` counts *logical* banks: TDRAM pairs physical
    banks across bank groups to serve 64 B at once (§III-C1), and the
    controller schedules the pair as a single resource.
    """

    channels: int
    banks_per_channel: int
    rows_per_bank: int
    columns_per_row: int  # 64-byte columns

    def __post_init__(self) -> None:
        for name in ("channels", "banks_per_channel", "rows_per_bank", "columns_per_row"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ConfigError(f"{name} must be a positive power of two, got {value}")

    @property
    def blocks_per_channel(self) -> int:
        """64 B blocks held by one channel."""
        return self.banks_per_channel * self.rows_per_bank * self.columns_per_row

    @property
    def total_blocks(self) -> int:
        """64 B blocks held by the whole device."""
        return self.channels * self.blocks_per_channel

    @property
    def capacity_bytes(self) -> int:
        """Device capacity in bytes."""
        return self.total_blocks * BLOCK_BYTES

    @classmethod
    def for_capacity(
        cls,
        capacity_bytes: int,
        channels: int,
        banks_per_channel: int = 16,
        columns_per_row: int = 32,
    ) -> "DramGeometry":
        """Build a geometry with the given capacity, deriving row count.

        A 32-column row of 64 B blocks is a 2 KiB logical row (two paired
        1 KiB physical rows), matching HBM3-class devices.
        """
        blocks = capacity_bytes // BLOCK_BYTES
        denom = channels * banks_per_channel * columns_per_row
        if blocks % denom:
            raise ConfigError(
                f"capacity {capacity_bytes} not divisible across {denom} row-slots"
            )
        rows = blocks // denom
        return cls(channels, banks_per_channel, rows, columns_per_row)


class DecodedAddress(NamedTuple):
    """A block address decomposed for one device access.

    :meth:`AddressMapper.decode` builds it with ``tuple.__new__``,
    skipping the generated Python ``__new__``.
    """

    channel: int
    bank: int
    row: int
    column: int


#: builds a NamedTuple without its generated Python ``__new__`` (typed
#: loosely: the checker types ``tuple.__new__`` as returning a tuple)
_new_tuple: Callable[..., Any] = tuple.__new__


class AddressMapper:
    """Block-address decomposition over a :class:`DramGeometry`.

    Two interleaving schemes (gem5 names, fields listed most- to
    least-significant):

    * ``RoCoRaBaCh`` — channel then bank in the low bits: consecutive
      blocks fan out across channels/banks for maximum parallelism.
      The right choice for the close-page DRAM cache (Table III).
    * ``RoRaBaChCo`` — column in the low bits: a row's worth of
      consecutive blocks stays in one bank, giving streaming traffic
      row-buffer hits. The right choice for the open-page DDR5.

    Addresses beyond the device capacity wrap onto the same resources,
    which is exactly how a direct-mapped cache reuses its frames for
    competing blocks.
    """

    SCHEMES = ("RoCoRaBaCh", "RoRaBaChCo")

    def __init__(self, geometry: DramGeometry, scheme: str = "RoCoRaBaCh") -> None:
        if scheme not in self.SCHEMES:
            raise ConfigError(f"unknown interleaving scheme {scheme!r}")
        self.geometry = geometry
        self.scheme = scheme
        # Every field width is a power of two (DramGeometry checks), so
        # each field is a shift and a mask of the block address.
        sizes = {"channel": geometry.channels,
                 "bank": geometry.banks_per_channel,
                 "column": geometry.columns_per_row,
                 "row": geometry.rows_per_bank}
        order = (("channel", "bank", "column", "row")
                 if scheme == "RoCoRaBaCh"
                 else ("column", "channel", "bank", "row"))
        fields: Dict[str, Tuple[int, int]] = {}
        shift = 0
        for name in order:  # least-significant field first
            fields[name] = (shift, sizes[name] - 1)
            shift += sizes[name].bit_length() - 1
        self._channel_shift, self._channel_mask = fields["channel"]
        self._bank_shift, self._bank_mask = fields["bank"]
        self._row_shift, self._row_mask = fields["row"]
        self._column_shift, self._column_mask = fields["column"]

    def decode(self, block_addr: int) -> DecodedAddress:
        """Map a block address to (channel, bank, row, column)."""
        if block_addr < 0:
            raise ConfigError(f"negative block address {block_addr}")
        return _new_tuple(DecodedAddress, (
            (block_addr >> self._channel_shift) & self._channel_mask,
            (block_addr >> self._bank_shift) & self._bank_mask,
            (block_addr >> self._row_shift) & self._row_mask,
            (block_addr >> self._column_shift) & self._column_mask,
        ))

    def route(self, block_addr: int) -> Tuple[int, int]:
        """``decode(block_addr)[:2]``: the (channel, bank) a controller
        queues an access on, without building the full decode."""
        if block_addr < 0:
            raise ConfigError(f"negative block address {block_addr}")
        return ((block_addr >> self._channel_shift) & self._channel_mask,
                (block_addr >> self._bank_shift) & self._bank_mask)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (for the canonical in-device block)."""
        return ((decoded.row << self._row_shift)
                + (decoded.column << self._column_shift)
                + (decoded.bank << self._bank_shift)
                + (decoded.channel << self._channel_shift))

    def frame_index(self, block_addr: int) -> int:
        """The cache frame (set, for direct-mapped) a block lands in."""
        return block_addr % self.geometry.total_blocks
