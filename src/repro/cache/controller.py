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
* optionally :meth:`_blocked_work` (TDRAM's probe slots) and
  :meth:`_handle_fill_eviction` (flush/victim buffers).
"""

from __future__ import annotations

import abc
import enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cache.metrics import CacheMetrics
from repro.cache.prefetcher import StridePrefetcher
from repro.cache.request import DemandRequest, Op, Outcome
from repro.cache.tagstore import TagStore
from repro.config.system import SystemConfig
from repro.dram.address import AddressMapper
from repro.dram.bus import Direction
from repro.dram.device import AccessGrant, DramChannel
from repro.dram.scheduler import ChannelScheduler
from repro.energy.power_model import EnergyMeter
from repro.errors import CapacityError
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.obs.trace import TraceSession


class OpKind(enum.Enum):
    """Cache operations a design can queue."""

    TAG_READ = "tag_read"      #: CL/Alloy/BEAR: DRAM read retrieving tag+data
    DATA_READ = "data_read"    #: plain data read (Ideal hit, victim readout)
    DATA_WRITE = "data_write"  #: plain data write (demand write or fill)
    ACT_RD = "act_rd"          #: TDRAM/NDC fused activate-read with tag check
    ACT_WR = "act_wr"          #: TDRAM/NDC fused activate-write with tag check


# Enum members read per access, bound once as module globals: an
# attribute read on an enum class costs about ten times a global read.
_READ = Op.READ
_DATA_WRITE = OpKind.DATA_WRITE


class CacheOp:
    """One queued DRAM-cache operation.

    A plain ``__slots__`` class rather than a dataclass: controllers
    allocate one per queued operation on the simulation hot path, and
    slotted instances skip the per-object ``__dict__``.
    """

    __slots__ = ("kind", "block", "bank", "arrive", "demand", "is_fill",
                 "victim_block")

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheOp({self.kind.value}, blk={self.block:#x}, "
                f"bank={self.bank}, arrive={self.arrive})")


class CacheChannelScheduler(ChannelScheduler[CacheOp]):
    """A cache channel's bounded read/write buffers.

    FR-FCFS picks the oldest op whose bank is ready (else the oldest);
    the write drain starts at 3/4 of the write buffer and ends at 1/4.
    The DRAM transaction and any blocked-slot work are the design's
    (:meth:`DramCacheController._earliest_op` / ``_commit_op`` /
    ``_blocked_work``).
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
        self.blocked_work = controller._blocked_work(index)

    # ------------------------------------------------------------------
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
            if banks[op.bank].ready_at <= at:
                return op
        return queue[0]

    def earliest(self, op: CacheOp, now: int) -> int:
        """The design's :meth:`DramCacheController._earliest_op` on this
        channel."""
        return self.controller._earliest_op(self.index, op, now)

    def commit(self, op: CacheOp, now: int) -> None:
        """The design's :meth:`DramCacheController._commit_op` on this
        channel."""
        self.controller._commit_op(self.index, op, now)


class DramCacheController(abc.ABC):
    """Base class for all DRAM-cache designs."""

    design_name = "base"
    #: bytes moved per access on the cache DQ bus (Alloy/BEAR use 80)
    burst_bytes = 64
    #: whether the device carries tag mats + an HM bus (TDRAM, NDC)
    has_tag_path = False
    #: lifecycle tracer the hooks below feed; None unless
    #: config.obs.trace is on
    trace: Optional[TraceSession]

    def __init__(self, sim: Simulator, config: SystemConfig,
                 main_memory: MainMemory) -> None:
        self.sim = sim
        self.config = config
        self.main_memory = main_memory
        geometry = config.cache_geometry()
        self.mapper = AddressMapper(geometry)
        self.tags = TagStore(geometry.total_blocks, config.cache_ways)
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
        self.meter.attach(self.channels)
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
        self.trace = None
        if config.obs.trace:
            from repro.obs.trace import TraceSession

            self.trace = TraceSession(self)

    # ------------------------------------------------------------------
    # Front-end interface
    # ------------------------------------------------------------------
    def route(self, block: int) -> Tuple[int, int]:
        """The (channel, bank) that ``block``'s accesses queue on."""
        return self.mapper.route(block)

    def can_accept(self, op: Op, block: int) -> bool:
        """Whether a new demand fits the controller's bounded buffers."""
        scheduler = self.schedulers[self.mapper.route(block)[0]]
        if op is _READ:
            return (len(scheduler.read_q) < scheduler.read_capacity
                    and len(self._mshrs) < self.mshr_limit)
        return self._can_accept_write(scheduler)

    def _can_accept_write(self, scheduler: CacheChannelScheduler) -> bool:
        """Default: a write needs a write-buffer slot."""
        return len(scheduler.write_q) < scheduler.write_capacity

    def submit(self, request: DemandRequest) -> None:
        """Accept a demand (caller must have checked :meth:`can_accept`)."""
        request.arrive_time = self.sim.now
        if self.trace is not None:
            self.trace.on_enqueue(request)
        if self.prefetcher is not None and request.op is _READ:
            self._drive_prefetcher(request)
        self._enqueue(request)

    def _drive_prefetcher(self, request: DemandRequest) -> None:
        """Train the stride prefetcher and launch speculative fills.

        Prefetches ride the normal fetch+fill path with no owning
        demand (but the triggering demand's age at the backing store);
        they compete with demands for main-memory bandwidth and MSHRs —
        the interference §V-D describes.
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
            self._fetch(candidate, request, waits=False)

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------
    def _record_tag_result(self, demand: DemandRequest, time: int,
                           outcome: Outcome) -> None:
        demand.tag_result_time = time
        self.metrics.record_outcome(demand.op, outcome)
        if self.trace is not None:
            self.trace.on_tag_result(demand, time, outcome)
        # Fig. 9's tag-check latency is a read-demand metric: it is the
        # component of the LLC read-miss penalty (§V-A). Write demands
        # resolve their tags with their own (posted) write operation.
        if demand.op is _READ:
            self.metrics.tag_check.record(time - demand.arrive_time)

    def _record_queue_delay(self, demand: DemandRequest, issue: int) -> None:
        if demand.issue_time < 0:
            demand.issue_time = issue
            self.metrics.read_queue_delay.record(issue - demand.arrive_time)
            if self.trace is not None:
                self.trace.on_issue(demand, issue)

    def _complete_read(self, demand: DemandRequest, time: int) -> None:
        if demand.completed:
            return
        self.metrics.read_latency.record(time - demand.arrive_time)
        if self.trace is not None:
            self.trace.on_read_complete(demand, time)
        demand.complete(time)

    def _fetch(self, block: int, request: DemandRequest,
               waits: bool = True) -> None:
        """Read ``block`` from main memory; fill and complete waiters.

        ``request`` is the demand that launched the fetch, and waits on
        it unless ``waits`` is False (a speculative fetch or a prefetch).
        """
        if waits and self.trace is not None:
            self.trace.on_fetch_start(request, self.sim.now)
        waiters = self._mshrs.get(block)
        if waiters is not None:
            if waits:
                waiters.append(request)
                self.metrics.events.add("mshr_merge")
            return
        self._mshrs[block] = [request] if waits else []
        # The launching demand's sequence number rides along so an
        # early-probed fetch cannot overtake older demands at the
        # backing store, and every read the cache sends, waited on or
        # not, is ordered by demand age.
        self.main_memory.read(
            block, partial(self._on_fetch_return, block), order=request.seq,
        )

    def _on_fetch_return(self, block: int, time: int) -> None:
        waiters = self._mshrs.pop(block, [])
        # The fetched line is the useful payload answering the demand(s);
        # a speculative fetch nobody waits for moved bytes for nothing.
        self.metrics.ledger.move("mm_fetch", 64, useful=bool(waiters))
        for demand in waiters:
            if self.trace is not None:
                self.trace.on_fetch_return(demand, time)
            self._complete_read(demand, time)
        if self._skip_fill():
            return
        evicted = self.tags.fill(block)
        if evicted is None and not self.tags.contains(block):
            return  # fill dropped (newer data raced in) and nothing evicted
        if evicted is not None and evicted[1]:
            self._handle_fill_eviction(evicted[0], time)
        self._enqueue_fill(block, time)

    def _skip_fill(self) -> bool:
        """Whether to drop a fetched line instead of filling it; BEAR's
        bandwidth-aware bypass overrides this."""
        return False

    def _enqueue_fill(self, block: int, time: int) -> None:
        """Queue the DRAM write that installs the fetched line."""
        channel, bank = self.route(block)
        op = CacheOp(self._fill_op_kind(), block, bank, time, is_fill=True)
        self.schedulers[channel].push_write(op, forced=True)

    def _fill_op_kind(self) -> OpKind:
        return _DATA_WRITE

    def _handle_fill_eviction(self, victim_block: int, time: int) -> None:
        """A fill displaced a dirty line installed after the miss probe.

        Rare interleaving; the default (tag-in-data designs) reads the
        victim out over DQ and posts the writeback.
        """
        channel, _bank = self.route(victim_block)
        self.channels[channel].transfer_raw(time, 64, Direction.READ)
        self.metrics.ledger.move("victim_readout", 64, useful=False)
        self._writeback(victim_block)

    def _writeback(self, block: int) -> None:
        self.main_memory.write(block)
        self.writebacks += 1
        self.metrics.events.add("writebacks")
        self.metrics.ledger.move("mm_writeback", 64, useful=False)

    # ------------------------------------------------------------------
    # DRAM access helper
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
        """Issue one access on a cache channel (which counts its energy)."""
        n_bytes = self.burst_bytes if data_bytes is None else data_bytes
        grant = self.channels[channel_idx].issue_access(
            bank, at, is_write, with_data=with_data, with_tag=with_tag,
            data_bytes=n_bytes, hm_result_delay=hm_result_delay,
            column_op=column_op, transfer=transfer,
        )
        if with_tag and self.trace is not None and grant.hm_at is not None:
            self.trace.on_hm_result(channel_idx, grant.hm_at)
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

    def _blocked_work(self, channel_idx: int) -> Optional[Callable[[int], None]]:
        """Work for channel ``channel_idx``'s scheduler to do, given
        ``now``, whenever it has work queued but no free slot.

        Asked once, when the scheduler is built. The default is None:
        the design has none, and blocked polls make no call. TDRAM with
        probing returns its early tag probes into the unused CA/HM
        slots (§III-E).
        """
        return None

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def pending_ops(self) -> int:
        """Queued cache operations plus in-flight main-memory fetches."""
        return sum(len(s.read_q) + len(s.write_q) for s in self.schedulers) + len(
            self._mshrs
        )
