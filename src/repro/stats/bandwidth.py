"""Bandwidth-bloat accounting (Fig. 3 and Table IV).

Following BEAR [28] (as adopted by the paper, §V-C): the **bloat
factor** is the total number of bytes moved divided by the total
*useful* bytes moved. Useful bytes are the single 64 B payload that
directly serves each demand — the hit data returned to the LLC, the
main-memory data that answers a read miss, or the written demand line.
Everything else the caching scheme moves is overhead: discarded
tag-check reads, 80 B-burst tag/padding, cache fills, dirty-victim
readouts, flush-buffer unloads, and main-memory writebacks. With this
definition each demand contributes exactly 64 useful bytes, and the
paper's Table IV values fall out of the hit/miss mix.

Every transfer is also tagged with a category so Figure 3's
useful/unuseful breakdown can be regenerated.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class BandwidthLedger:
    """Byte ledger for one DRAM-cache device."""

    def __init__(self) -> None:
        self.useful_bytes = 0
        self.unuseful_bytes = 0
        self._by_category: Dict[str, int] = defaultdict(int)

    def move(self, category: str, n_bytes: int, useful: bool) -> None:
        """Record ``n_bytes`` moved on the DQ bus."""
        if n_bytes < 0:
            raise ValueError(f"negative byte count {n_bytes}")
        if useful:
            self.useful_bytes += n_bytes
        else:
            self.unuseful_bytes += n_bytes
        self._by_category[category] += n_bytes

    def move_split(self, category: str, useful_bytes: int, overhead_bytes: int) -> None:
        """Record a transfer whose payload is useful but carries overhead.

        Alloy/BEAR bursts are 80 B for a 64 B line: 64 B payload + 16 B
        tag/padding overhead.
        """
        self.move(category, useful_bytes, useful=True)
        if overhead_bytes:
            self.move(category + "_overhead", overhead_bytes, useful=False)

    @property
    def total_bytes(self) -> int:
        """Every byte moved, useful or not."""
        return self.useful_bytes + self.unuseful_bytes

    @property
    def bloat_factor(self) -> float:
        """Total bytes moved / useful bytes moved (>= 1.0)."""
        if self.useful_bytes == 0:
            return 1.0
        return self.total_bytes / self.useful_bytes

    @property
    def unuseful_fraction(self) -> float:
        """Share of all moved bytes that served no purpose (Fig. 3)."""
        if self.total_bytes == 0:
            return 0.0
        return self.unuseful_bytes / self.total_bytes

    def by_category(self) -> Dict[str, int]:
        """Bytes moved per transfer category (Fig. 3)."""
        return dict(self._by_category)

    def reset(self) -> None:
        """Forget every transfer (measurement-window start)."""
        self.useful_bytes = 0
        self.unuseful_bytes = 0
        self._by_category.clear()
