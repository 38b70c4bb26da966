"""HM-bus packet model (§III-B).

The Hit-Miss bus is a 4-bit unidirectional bus per channel running at
the full data rate. A packet carries the tag-comparison result, status
bits, and — on a dirty miss — the victim's tag so the controller can
form the writeback address. 3 B of tag+metadata take 6 beats; at 4 bits
per beat x 8 Gb/s that is 0.75 ns of bus occupancy, far shorter than a
64 B DQ burst, which is why probe traffic fits in leftover slots. The
beat arithmetic, :func:`packet_beats`, lives beside the channel's
``HM_PACKET_TIME`` in :mod:`repro.dram.device`, which derives the
packet time from it.

For a 1 PB address space a direct-mapped 64 GiB TDRAM needs a 14-bit
tag + valid + dirty = 16 bits, leaving 8 bits of ECC within 3 B
(§III-C3); :func:`tag_bits_for` generalises that arithmetic.
"""

from __future__ import annotations

from repro.dram.device import packet_beats
from repro.errors import ConfigError

__all__ = ["packet_beats", "tag_bits_for"]


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
