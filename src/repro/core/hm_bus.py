"""HM-bus packet model (§III-B).

The Hit-Miss bus is a 4-bit unidirectional bus per channel running at
the full data rate. A packet carries the tag-comparison result, status
bits, and — on a dirty miss — the victim's tag so the controller can
form the writeback address. 3 B of tag+metadata take 6 beats; at 4 bits
per beat x 8 Gb/s that is 0.75 ns of bus occupancy, far shorter than a
64 B DQ burst, which is why probe traffic fits in leftover slots.

For a 1 PB address space a direct-mapped 64 GiB TDRAM needs a 14-bit
tag + valid + dirty = 16 bits, leaving 8 bits of ECC within 3 B
(§III-C3); :func:`tag_bits_for` generalises that arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

HM_BUS_WIDTH_BITS = 4
HM_PACKET_BYTES = 3


@dataclass(frozen=True)
class HmPacket:
    """One decoded HM-bus message."""

    hit: bool
    valid: bool
    dirty: bool
    tag: int  #: resident line's tag (meaningful on a dirty miss)

    def encode(self, tag_bits: int) -> int:
        """Pack into an integer: [tag | dirty | valid | hit]."""
        if self.tag < 0 or self.tag >= (1 << tag_bits):
            raise ConfigError(f"tag {self.tag} does not fit in {tag_bits} bits")
        value = self.tag
        value = (value << 1) | int(self.dirty)
        value = (value << 1) | int(self.valid)
        value = (value << 1) | int(self.hit)
        return value

    @classmethod
    def decode(cls, value: int, tag_bits: int) -> "HmPacket":
        """Unpack an integer built by :meth:`encode`."""
        hit = bool(value & 1)
        valid = bool((value >> 1) & 1)
        dirty = bool((value >> 2) & 1)
        tag = (value >> 3) & ((1 << tag_bits) - 1)
        return cls(hit=hit, valid=valid, dirty=dirty, tag=tag)


def tag_bits_for(address_space_bytes: int, cache_bytes: int) -> int:
    """Tag width for a direct-mapped cache of ``cache_bytes``.

    >>> tag_bits_for(2**50, 64 * 2**30)   # 1 PB space, 64 GiB cache
    14
    """
    if address_space_bytes <= 0 or cache_bytes <= 0:
        raise ConfigError("sizes must be positive")
    if address_space_bytes <= cache_bytes:
        return 0
    ratio = address_space_bytes // cache_bytes
    return max(0, ratio - 1).bit_length()


def packet_beats(payload_bytes: int = HM_PACKET_BYTES,
                 bus_width_bits: int = HM_BUS_WIDTH_BITS) -> int:
    """Number of HM-bus beats for a payload ("6 for 3 B metadata")."""
    if payload_bytes <= 0 or bus_width_bits <= 0:
        raise ConfigError("payload and width must be positive")
    bits = payload_bytes * 8
    return -(-bits // bus_width_bits)
