"""Early tag probing policy (§III-E).

A probe is a tag-only access issued into *otherwise unused* CA and HM
bus slots while the data-side resources are busy. The selection policy
(§III-E2) picks, among queued reads whose tag bank is currently free,
the **youngest** request — minimising average queue occupancy, because
older requests will reach their MAIN slot soon anyway.

Probing is focused on reads; writes resolve their outcome with their
own ActWr, and probing them would add tag-bank conflicts for no miss-
latency benefit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.controller import CacheOp
from repro.cache.request import Op
from repro.dram.device import DramChannel
from repro.stats.counters import CounterSet

# Read per queued op, as a module global (see repro.cache.controller).
_READ = Op.READ


class ProbeEngine:
    """Chooses and accounts early tag probes for one controller."""

    def __init__(self) -> None:
        self.stats = CounterSet()

    def select(self, channel: DramChannel, read_q: List[CacheOp],
               now: int) -> Optional[CacheOp]:
        """Pick the youngest probe-eligible queued read, if any.

        Eligible: a READ demand not yet probed whose tag bank, the CA
        bus, and the HM result slot are all free right now — so the
        probe never steals a MAIN command slot — and which is not about
        to issue anyway: either its data bank is busy, or older requests
        sit ahead of it in the queue. Probing the imminent-issue head
        would only create tag-bank conflicts with its own MAIN command
        (the paper measures such conflicts below 1 %, §III-E2).

        When a bank-independent slot (CA bus, tag activation window, HM
        slot) is busy at ``now``, no read is eligible and the queue is
        not walked. The oldest read per bank is looked up only for a
        candidate whose data bank frees within the probe's hold.
        """
        tag_timing = channel.tag_timing
        if tag_timing is None or not channel.probe_slot_free(now):
            return None
        hold_end = now + tag_timing.tRC_TAG
        banks = channel.banks
        oldest_for_bank: Optional[Dict[int, CacheOp]] = None
        for op in reversed(read_q):  # youngest first
            demand = op.demand
            if demand is None or demand.op is not _READ or demand.probed:
                continue
            if banks[op.bank].ready_at < hold_end:
                if oldest_for_bank is None:
                    oldest_for_bank = {}
                    for queued in read_q:  # queue order = age order
                        oldest_for_bank.setdefault(queued.bank, queued)
                if oldest_for_bank[op.bank] is op:
                    # This demand is next in line for a bank that frees
                    # inside the probe's tag-bank hold: probing it would
                    # collide with its own MAIN command.
                    continue
            if channel.can_probe(op.bank, now):
                return op
        return None

    def record_issue(self) -> None:
        """A probe was issued."""
        self.stats.add("probes")

    def record_bank_conflict(self) -> None:
        """A MAIN command wanted the tag bank a probe was using."""
        self.stats.add("bank_conflicts")

    @property
    def probes(self) -> int:
        """Probes issued."""
        return self.stats["probes"]

    @property
    def bank_conflicts(self) -> int:
        """MAIN commands that found their tag bank held by a probe."""
        return self.stats["bank_conflicts"]
