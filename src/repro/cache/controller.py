"""DRAM-cache controller infrastructure shared by every design.

A controller owns the functional :class:`TagStore`, one
:class:`DramChannel` per cache channel, per-channel FR-FCFS schedulers
(:class:`CacheChannelScheduler`, on the shared
:class:`~repro.dram.scheduler.ChannelScheduler` loop) with bounded
read/write buffers and a write-drain watermark policy, an MSHR file
for main-memory fetches, and the metrics/energy instruments.

Concrete designs (Cascade Lake, Alloy, BEAR, NDC, TDRAM, Ideal)
subclass :class:`DramCacheController` and implement:

* :meth:`DramCacheController._enqueue` — turn an accepted demand into
  queued cache operations;
* :meth:`DramCacheController._earliest_op` / :meth:`_commit_op` — the
  design's DRAM transaction for each operation kind;
* optionally :meth:`_on_blocked` (TDRAM's probe slots) and
  :meth:`_handle_fill_eviction` (flush/victim buffers).
"""

from __future__ import annotations

import abc
import enum
import itertools
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.cache.metrics import CacheMetrics
from repro.cache.prefetcher import StridePrefetcher
from repro.cache.request import DemandRequest, Op, Outcome
from repro.cache.tagstore import TagStore
from repro.config.system import SystemConfig
from repro.dram.address import AddressMapper, DramGeometry
from repro.dram.bus import Direction
from repro.dram.device import AccessGrant, DramChannel
from repro.dram.scheduler import ChannelScheduler
from repro.energy.power_model import EnergyMeter
from repro.errors import CapacityError
from repro.memory.backend import MemoryBackend
from repro.sim.kernel import Simulator


class OpKind(enum.Enum):
    """Cache operations a design can queue."""

    TAG_READ = "tag_read"      #: CL/Alloy/BEAR: DRAM read retrieving tag+data
    DATA_READ = "data_read"    #: plain data read (Ideal hit, victim readout)
    DATA_WRITE = "data_write"  #: plain data write (demand write or fill)
    ACT_RD = "act_rd"          #: TDRAM/NDC fused activate-read with tag check
    ACT_WR = "act_wr"          #: TDRAM/NDC fused activate-write with tag check


_op_sequence = itertools.count()


class CacheOp:
    """One queued DRAM-cache operation.

    A plain ``__slots__`` class rather than a dataclass: controllers
    allocate one per queued operation on the simulation hot path, and
    slotted instances skip the per-object ``__dict__``.
    """

    __slots__ = ("kind", "block", "bank", "arrive", "demand", "is_fill",
                 "victim_block", "seq")

    def __init__(self, kind: OpKind, block: int, bank: int, arrive: int,
                 demand: Optional[DemandRequest] = None,
                 is_fill: bool = False,
                 victim_block: Optional[int] = None) -> None:
        self.kind = kind
        self.block = block
        self.bank = bank
        self.arrive = arrive
        self.demand = demand
        self.is_fill = is_fill
        #: set when an early probe found a dirty miss: the MAIN slot only
        #: streams this victim out (the demand itself is served via MSHR)
        self.victim_block = victim_block
        self.seq = next(_op_sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheOp({self.kind.value}, blk={self.block:#x}, "
                f"bank={self.bank}, seq={self.seq})")


class CacheChannelScheduler(ChannelScheduler[CacheOp]):
    """A cache channel's bounded read/write buffers.

    FR-FCFS picks the oldest op whose bank is ready (else the oldest);
    the write drain starts at 3/4 of the write buffer and ends at 1/4.
    The DRAM transaction and any blocked-slot work are the design's
    (:meth:`DramCacheController._earliest_op` / ``_commit_op`` /
    ``_on_blocked``).
    """

    def __init__(self, controller: "DramCacheController", index: int) -> None:
        config = controller.config
        write_capacity = config.write_buffer_entries
        super().__init__(controller.sim, controller.channels[index],
                         high_watermark=max(1, (3 * write_capacity) // 4),
                         low_watermark=max(0, write_capacity // 4))
        self.controller = controller
        self.index = index
        self.read_capacity = config.read_buffer_entries
        self.write_capacity = write_capacity

    # ------------------------------------------------------------------
    def read_space(self) -> int:
        return self.read_capacity - len(self.read_q)

    def write_space(self) -> int:
        return self.write_capacity - len(self.write_q)

    def push_write(self, op: CacheOp, forced: bool = False) -> None:
        """Append to the write queue, counting overflow backpressure.

        Unforced overflow still raises :class:`CapacityError` (the
        front end is expected to have checked :meth:`can_accept`), but
        the rejection is now visible in the metrics; forced pushes past
        capacity (fills, drains) are counted rather than silent.
        """
        if len(self.write_q) >= self.write_capacity:
            events = self.controller.metrics.events
            if not forced:
                events.add("write_q_rejected")
                raise CapacityError(f"write buffer full on channel {self.index}")
            events.add("write_q_forced_over_capacity")
        super().push_write(op)

    # ------------------------------------------------------------------
    def _update_drain_mode(self) -> None:
        if len(self.write_q) >= self.high_watermark:
            self.draining = True
        elif len(self.write_q) <= self.low_watermark:
            self.draining = False

    def _select(self, queue: List[CacheOp], at: int) -> CacheOp:
        """FR-FCFS: oldest op whose bank is ready, else the oldest op."""
        banks = self.channel.banks
        for op in queue:
            if banks[op.bank].is_ready(at):
                return op
        return queue[0]

    def earliest(self, op: CacheOp, now: int) -> int:
        return self.controller._earliest_op(self.index, op, now)

    def commit(self, op: CacheOp, now: int) -> None:
        self.controller._commit_op(self.index, op, now)

    def _on_blocked(self, now: int) -> None:
        self.controller._on_blocked(self.index, now)


class DramCacheController(abc.ABC):
    """Base class for all DRAM-cache designs."""

    design_name = "base"
    #: bytes moved per access on the cache DQ bus (Alloy/BEAR use 80)
    burst_bytes = 64
    #: whether the device carries tag mats + an HM bus (TDRAM, NDC)
    has_tag_path = False

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MemoryBackend) -> None:
        self.sim = sim
        self.config = config
        self.main_memory = main_memory
        #: allocation policy: "write_allocate" (default), "write_only",
        #: or "write_around" — see docs/backends.md
        self.cache_mode = config.cache_mode
        geometry = config.cache_geometry()
        self.mapper = AddressMapper(geometry)
        self.tags = self._build_tag_store(geometry)
        tag_timing = config.tag_timing if self.has_tag_path else None
        self.channels = [
            DramChannel(sim, config.cache_timing, geometry.banks_per_channel,
                        f"{self.design_name}{i}", tag_timing=tag_timing,
                        refresh_policy=config.cache_refresh_policy)
            for i in range(geometry.channels)
        ]
        self.schedulers = [
            CacheChannelScheduler(self, i) for i in range(geometry.channels)
        ]
        self.metrics = CacheMetrics()
        self.meter = EnergyMeter(
            config.energy_model, geometry.channels, self.has_tag_path
        )
        #: block -> demands waiting on an in-flight main-memory fetch
        self._mshrs: Dict[int, List[DemandRequest]] = {}
        #: outstanding-miss bound: early probing may free read-buffer
        #: entries (§III-E), but the controller still tracks each miss
        #: in an MSHR until the fill returns, bounding memory pressure.
        self.mshr_limit = config.read_buffer_entries
        self.writebacks = 0
        self.prefetcher: Optional[StridePrefetcher] = (
            StridePrefetcher(degree=config.prefetch_degree)
            if config.use_prefetcher else None
        )
        #: reliability subsystem (fault injection, ECC recovery,
        #: scrubbing, degradation) — None unless config.ras.enabled
        self.ras = None
        if config.ras.enabled:
            from repro.ras.manager import RasManager

            self.ras = RasManager(self)
        #: observability layer (lifecycle tracing, epoch series, kernel
        #: profiling) — None unless any config.obs instrument is on
        self.obs = None
        if config.obs.any_enabled:
            from repro.obs.session import ObsSession

            self.obs = ObsSession(self)

    def _build_tag_store(self, geometry: DramGeometry) -> TagStore:
        """Construct the design's tag store (the organization seam).

        The default is set-associative LRU, matching the pre-seam
        behaviour bit for bit. ``cache_organization="reference"``
        selects the frozen pre-seam store for A/B runs; designs with a
        custom layout (Gemini, TicToc) override this hook.
        """
        if self.config.cache_organization == "reference":
            from repro.cache.reference_tagstore import ReferenceTagStore

            return ReferenceTagStore(geometry.total_blocks,
                                     self.config.cache_ways)
        return TagStore(geometry.total_blocks, self.config.cache_ways)

    # ------------------------------------------------------------------
    # Front-end interface
    # ------------------------------------------------------------------
    def route(self, block: int) -> Tuple[int, int]:
        decoded = self.mapper.decode(block)
        return decoded.channel, decoded.bank

    def can_accept(self, op: Op, block: int) -> bool:
        """Whether a new demand fits the controller's bounded buffers."""
        channel, _bank = self.route(block)
        scheduler = self.schedulers[channel]
        if op is Op.READ:
            return (scheduler.read_space() > 0
                    and len(self._mshrs) < self.mshr_limit)
        return self._can_accept_write(scheduler)

    def _can_accept_write(self, scheduler: CacheChannelScheduler) -> bool:
        """Default: a write needs a write-buffer slot."""
        return scheduler.write_space() > 0

    def submit(self, request: DemandRequest) -> None:
        """Accept a demand (caller must have checked :meth:`can_accept`)."""
        request.arrive_time = self.sim.now
        if self.obs is not None:
            self.obs.on_enqueue(request)
        if (self.cache_mode == "write_around" and request.op is Op.WRITE
                and not self.tags.contains(request.block_addr)):
            self._bypass_write(request)
            return
        if self.prefetcher is not None and request.op is Op.READ:
            self._drive_prefetcher(request)
        self._enqueue(request)

    def _bypass_write(self, request: DemandRequest) -> None:
        """write_around: send a write miss straight to the backing store.

        The cache is not allocated: the 64 demand bytes go to the
        backend as a posted write (a *useful* move — they are the
        demand's payload), the miss is still recorded against the tag
        store so every design sees the same outcome stream, and any
        stale copy of the block sitting in a flush buffer is dropped
        (the bypassed write supersedes it).
        """
        now = self.sim.now
        flush = getattr(self, "flush", None)
        if flush is not None:
            flush.remove(request.block_addr)
        result = self.tags.probe(request.block_addr, touch=False)
        self._record_tag_result(request, now, result.outcome)
        self.metrics.events.add("write_around_bypass")
        self.metrics.ledger.move("mm_write_direct", 64, useful=True)
        self.main_memory.write(request.block_addr)
        request.complete(now)

    def _drive_prefetcher(self, request: DemandRequest) -> None:
        """Train the stride prefetcher and launch speculative fills.

        Prefetches ride the normal fetch+fill path with no owning
        demand; they compete with demands for main-memory bandwidth and
        MSHRs — the interference §V-D describes.
        """
        assert self.prefetcher is not None
        self.prefetcher.note_demand_hit(request.block_addr)
        for candidate in self.prefetcher.observe(request.pc,
                                                 request.block_addr):
            if self.tags.contains(candidate) or candidate in self._mshrs:
                continue
            if len(self._mshrs) >= self.mshr_limit:
                self.prefetcher.stats.add("dropped_mshr_full")
                break
            self.metrics.events.add("prefetch_issued")
            self._fetch(candidate, None)

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------
    def _record_tag_result(self, demand: DemandRequest, time: int,
                           outcome: Outcome) -> None:
        if self.ras is not None and self.has_tag_path:
            # A corrupt HM result packet is detected by its packet ECC
            # and retransferred; the recovered result lands later.
            time += self.ras.hm_result_read()
        demand.tag_result_time = time
        demand.outcome = outcome
        self.metrics.record_outcome(demand.op, outcome)
        if self.obs is not None:
            self.obs.on_tag_result(demand, time, outcome)
        # Fig. 9's tag-check latency is a read-demand metric: it is the
        # component of the LLC read-miss penalty (§V-A). Write demands
        # resolve their tags with their own (posted) write operation.
        if demand.op is Op.READ:
            self.metrics.tag_check.record(time - demand.arrive_time)

    def _record_queue_delay(self, demand: DemandRequest, issue: int) -> None:
        if demand.issue_time < 0:
            demand.issue_time = issue
            self.metrics.read_queue_delay.record(issue - demand.arrive_time)
            if self.obs is not None:
                self.obs.on_issue(demand, issue)

    def _complete_read(self, demand: DemandRequest, time: int) -> None:
        if demand.completed:
            return
        self.metrics.read_latency.record(time - demand.arrive_time)
        if self.obs is not None:
            self.obs.on_read_complete(demand, time)
        demand.complete(time)

    def _fetch(self, block: int, demand: Optional[DemandRequest]) -> None:
        """Read ``block`` from main memory; fill and complete waiters."""
        if self.obs is not None and demand is not None:
            self.obs.on_fetch_start(demand, self.sim.now)
        waiters = self._mshrs.get(block)
        if waiters is not None:
            if demand is not None:
                waiters.append(demand)
                self.metrics.events.add("mshr_merge")
            return
        self._mshrs[block] = [demand] if demand is not None else []
        # The demand's sequence number rides along so an early-probed
        # fetch cannot overtake older demands at the backing store.
        order = demand.seq if demand is not None else None
        self.main_memory.read(
            block, partial(self._on_fetch_return, block), order=order,
        )

    def _on_fetch_return(self, block: int, time: int) -> None:
        waiters = self._mshrs.pop(block, [])
        # The fetched line is the useful payload answering the demand(s);
        # a speculative fetch nobody waits for moved bytes for nothing.
        self.metrics.ledger.move("mm_fetch", 64, useful=bool(waiters))
        for demand in waiters:
            if self.obs is not None:
                self.obs.on_fetch_return(demand, time)
            self._complete_read(demand, time)
        if self.cache_mode == "write_only":
            # Dirty-traffic-only caching: a fetched line streams through
            # to the requestor without allocating a frame, so the cache
            # holds nothing a writeback would not need anyway.
            self.metrics.events.add("read_fill_bypassed")
            return
        evicted = self.tags.fill(block)
        if evicted is None and not self.tags.contains(block):
            return  # fill dropped (newer data raced in) and nothing evicted
        if evicted is not None and evicted[1]:
            self._handle_fill_eviction(evicted[0], time)
        self._enqueue_fill(block, time)

    def _enqueue_fill(self, block: int, time: int) -> None:
        """Queue the DRAM write that installs the fetched line."""
        channel, bank = self.route(block)
        op = CacheOp(self._fill_op_kind(), block, bank, time, is_fill=True)
        self.schedulers[channel].push_write(op, forced=True)

    def _fill_op_kind(self) -> OpKind:
        return OpKind.DATA_WRITE

    def _handle_fill_eviction(self, victim_block: int, time: int) -> None:
        """A fill displaced a dirty line installed after the miss probe.

        Rare interleaving; the default (tag-in-data designs) reads the
        victim out over DQ and posts the writeback.
        """
        channel, _bank = self.route(victim_block)
        self.channels[channel].transfer_raw(time, 64, Direction.READ)
        self.meter.add_dq_bytes(64)
        self.metrics.ledger.move("victim_readout", 64, useful=False)
        self._writeback(victim_block)

    def _writeback(self, block: int) -> None:
        self.main_memory.write(block)
        self.writebacks += 1
        self.metrics.events.add("writebacks")
        self.metrics.ledger.move("mm_writeback", 64, useful=False)

    # ------------------------------------------------------------------
    # DRAM access helper (energy-instrumented)
    # ------------------------------------------------------------------
    def _access(
        self,
        channel_idx: int,
        bank: int,
        at: int,
        is_write: bool,
        with_data: bool,
        data_bytes: Optional[int] = None,
        with_tag: bool = False,
        hm_result_delay: Optional[int] = None,
        column_op: bool = True,
        transfer: bool = True,
    ) -> AccessGrant:
        """Issue one access on a cache channel, recording energy."""
        channel = self.channels[channel_idx]
        n_bytes = self.burst_bytes if data_bytes is None else data_bytes
        grant = channel.issue_access(
            bank, at, is_write, with_data=with_data, with_tag=with_tag,
            data_bytes=n_bytes, hm_result_delay=hm_result_delay,
            transfer=transfer,
        )
        self.meter.record("cmd")
        self.meter.record("act_data")
        if with_tag:
            self.meter.record("act_tag")
            self.meter.record("hm_packet")
            if self.obs is not None and grant.hm_at is not None:
                self.obs.on_hm_result(channel_idx, grant.hm_at)
        if column_op:
            self.meter.record("col_op")
        if with_data and transfer:
            self.meter.add_dq_bytes(n_bytes)
        return grant

    # ------------------------------------------------------------------
    # Design hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _enqueue(self, request: DemandRequest) -> None:
        """Route an accepted demand into the channel queues."""

    @abc.abstractmethod
    def _earliest_op(self, channel_idx: int, op: CacheOp, now: int) -> int:
        """Earliest instant ``op`` could issue on its channel."""

    @abc.abstractmethod
    def _commit_op(self, channel_idx: int, op: CacheOp, now: int) -> None:
        """Issue ``op`` now: reserve resources, schedule consequences."""

    def _on_blocked(self, channel_idx: int, now: int) -> None:
        """Called when the scheduler found work but no free slot.

        TDRAM overrides this to fire early tag probes into the unused
        CA/HM slots (§III-E).
        """

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def pending_ops(self) -> int:
        return sum(len(s.read_q) + len(s.write_q) for s in self.schedulers) + len(
            self._mshrs
        )

    def queue_occupancy(self) -> int:
        return sum(len(s.read_q) for s in self.schedulers)
