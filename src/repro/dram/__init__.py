"""DRAM device substrate: timing, addressing, buses, banks, channels."""

from repro.dram.address import BLOCK_BYTES, AddressMapper, DecodedAddress, DramGeometry
from repro.dram.bank import ActivationWindow, Bank
from repro.dram.bus import Bus, DataBus, Direction
from repro.dram.device import HM_PACKET_TIME, AccessGrant, DramChannel
from repro.dram.timing import (
    DramTiming,
    TagTiming,
    ddr5_timing,
    hbm3_cache_timing,
    rldram_like_tag_timing,
)

__all__ = [
    "BLOCK_BYTES",
    "AddressMapper",
    "DecodedAddress",
    "DramGeometry",
    "ActivationWindow",
    "Bank",
    "Bus",
    "DataBus",
    "Direction",
    "HM_PACKET_TIME",
    "AccessGrant",
    "DramChannel",
    "DramTiming",
    "TagTiming",
    "ddr5_timing",
    "hbm3_cache_timing",
    "rldram_like_tag_timing",
]
