"""Request-lifecycle tracing with Chrome/Perfetto ``trace_event`` export.

A cache controller builds one :class:`TraceSession` when
``config.obs.trace`` is on and holds it as ``controller.trace``. The
session subscribes to the controller's channels (as a
:class:`~repro.dram.monitor.ChannelObserver`), and the controller calls
its lifecycle hooks directly. It records two kinds of material:

* **request spans** — one span per demand from controller arrival to
  retirement, with child spans for the queue wait, the tag resolution
  (probe or MAIN command to HM result), the DQ data window, and the
  main-memory fetch of a miss;
* **resource slices** — CA command slots, DQ burst windows, and HM
  result packets per channel, flush-buffer drains, and a flush-buffer
  occupancy counter track.

Export is the Chrome ``trace_event`` JSON object format (a dict with a
``traceEvents`` list), which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly. Timestamps are microseconds
(floats), converted from the kernel's integer picoseconds. The track
layout and span taxonomy are specified in ``docs/tracing.md``.

Memory is bounded: at most :data:`TRACE_LIMIT` request records and
as many resource events are retained; further ones increment
:attr:`TraceSession.dropped` (mirroring
:class:`~repro.dram.monitor.CommandLog`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dram.device import HM_PACKET_TIME
from repro.dram.monitor import ChannelObserver, CommandRecord

#: Synthetic "process" ids structuring the trace: one for request
#: lanes, one for the flush buffer, then one per cache channel.
PID_REQUESTS = 1
PID_FLUSH = 2
PID_CHANNEL_BASE = 10

#: Thread ids within a channel process (one per bus track).
TID_CA = 0
TID_DQ = 1
TID_HM = 2

#: Request child-span names, in canonical order.
CHILD_SPANS = ("queue", "tag", "mm_fetch", "dq")

#: Request records, and separately resource events, kept per trace.
TRACE_LIMIT = 200_000


def _us(picoseconds: int) -> float:
    """Picoseconds -> trace-event microseconds."""
    return picoseconds / 1e6


@dataclass
class _RequestTrace:
    """Mutable per-demand record, finalized into span events at export."""

    seq: int
    op: str
    block: int
    core: int
    arrive: int
    issue: int = -1
    probe_issue: int = -1
    tag_result: int = -1
    outcome: str = ""
    dq: Optional[Tuple[int, int]] = None
    mm: List[int] = field(default_factory=lambda: [-1, -1])
    end: int = -1


class _ChannelTap(ChannelObserver):
    """Adapter forwarding one channel's command stream to the session."""

    def __init__(self, session: "TraceSession", index: int, channel) -> None:
        self.session = session
        self.index = index
        self.channel = channel

    def on_command(self, record: CommandRecord) -> None:
        """Forward a committed command to the owning session."""
        self.session.on_channel_command(self.index, self.channel, record)


class TraceSession:
    """Collects lifecycle spans and bus slices; exports Chrome JSON."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.dropped = 0
        #: committed bus-slice / instant / counter events (chrome dicts)
        self._events: List[dict] = []
        #: in-flight demands by sequence number
        self._live: Dict[int, _RequestTrace] = {}
        #: retired demands awaiting export
        self._done: List[_RequestTrace] = []
        self.unfinished = 0
        for index, channel in enumerate(controller.channels):
            channel.observers.append(_ChannelTap(self, index, channel))

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the controller)
    # ------------------------------------------------------------------
    def on_enqueue(self, demand) -> None:
        """A demand entered the controller (span start)."""
        if len(self._live) + len(self._done) >= TRACE_LIMIT:
            self.dropped += 1
            return
        self._live[demand.seq] = _RequestTrace(
            seq=demand.seq,
            op=demand.op.value,
            block=demand.block_addr,
            core=demand.core_id,
            arrive=self.sim.now,
        )

    def on_issue(self, demand, time: int) -> None:
        """The demand's first DRAM command (or probe) issued."""
        trace = self._live.get(demand.seq)
        if trace is not None and trace.issue < 0:
            trace.issue = time

    def on_probe(self, demand, issue: int, hm_at: int) -> None:
        """An early tag probe was fired for the demand (§III-E)."""
        trace = self._live.get(demand.seq)
        if trace is not None:
            trace.probe_issue = issue
            if trace.issue < 0:
                trace.issue = issue

    def on_tag_result(self, demand, time: int, outcome) -> None:
        """The hit/miss outcome reached the controller (HM result)."""
        trace = self._live.get(demand.seq)
        if trace is None:
            return
        trace.tag_result = time
        trace.outcome = outcome.value
        if trace.op == "write":
            # Writes are posted: their lifecycle ends when the tag
            # outcome resolves with their own ActWr/write operation.
            self._finish(trace, time)

    def on_dq_window(self, demand, start: int, end: int) -> None:
        """The demand's data moved on the cache DQ bus in [start, end)."""
        trace = self._live.get(demand.seq)
        if trace is not None:
            trace.dq = (start, end)

    def on_fetch_start(self, demand, time: int) -> None:
        """A main-memory fetch for the demand's block began (miss)."""
        trace = self._live.get(demand.seq)
        if trace is not None:
            trace.mm[0] = time

    def on_fetch_return(self, demand, time: int) -> None:
        """The main-memory fetch returned (fill data available)."""
        trace = self._live.get(demand.seq)
        if trace is not None:
            trace.mm[1] = time

    def on_read_complete(self, demand, time: int) -> None:
        """The read response was delivered to the front end (span end)."""
        trace = self._live.get(demand.seq)
        if trace is not None:
            self._finish(trace, time)

    def _finish(self, trace: _RequestTrace, end: int) -> None:
        trace.end = end
        self._live.pop(trace.seq, None)
        self._done.append(trace)

    # ------------------------------------------------------------------
    # Resource hooks
    # ------------------------------------------------------------------
    def on_channel_command(self, index: int, channel,
                           record: CommandRecord) -> None:
        """One committed channel command -> CA and/or DQ slices."""
        pid = PID_CHANNEL_BASE + index
        timing = channel.timing
        if record.command == "refresh":
            self._emit_slice(pid, TID_CA, "refresh", record.time_ps,
                             record.time_ps + timing.tRFC,
                             {"bank": record.bank})
        elif record.command not in ("raw_read", "raw_write"):
            self._emit_slice(pid, TID_CA, record.command, record.time_ps,
                             record.time_ps + timing.tCMD,
                             {"bank": record.bank})
        if record.data_start is not None and record.data_end is not None:
            self._emit_slice(pid, TID_DQ, record.command,
                             record.data_start, record.data_end,
                             {"bank": record.bank})

    def on_hm_result(self, channel_idx: int, hm_at: int) -> None:
        """An HM result packet occupied the HM bus ending at ``hm_at``."""
        self._emit_slice(PID_CHANNEL_BASE + channel_idx, TID_HM, "hm",
                         hm_at - HM_PACKET_TIME, hm_at)

    def on_flush_drain(self, reason: str, block: int, start: int,
                       end: int) -> None:
        """A flush-buffer entry streamed out over DQ (§III-D2)."""
        self._emit_slice(PID_FLUSH, 1, f"drain:{reason}", start, end,
                         {"block": hex(block)})

    def on_flush_level(self, level: int) -> None:
        """The flush-buffer occupancy changed (counter track)."""
        self._emit({
            "name": "flush_occupancy", "ph": "C", "ts": _us(self.sim.now),
            "pid": PID_FLUSH, "tid": 0, "args": {"entries": level},
        })

    # ------------------------------------------------------------------
    # Event assembly
    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        if len(self._events) >= TRACE_LIMIT:
            self.dropped += 1
            return
        self._events.append(event)

    def _emit_slice(self, pid: int, tid: int, name: str, start: int,
                    end: int, args: Optional[dict] = None) -> None:
        event = {
            "name": name, "ph": "X", "ts": _us(start),
            "dur": _us(max(0, end - start)), "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._emit(event)

    @staticmethod
    def _metadata(pid: int, tid: Optional[int], key: str, value: str) -> dict:
        event = {
            "name": key, "ph": "M", "pid": pid,
            "args": {key.split("_", 1)[-1]: value},
        }
        if tid is not None:
            event["tid"] = tid
        return event

    def _request_events(self) -> List[dict]:
        """Lay retired requests out on non-overlapping lanes and emit
        one parent span plus contained child spans per request."""
        events: List[dict] = []
        lanes: List[int] = []
        for trace in sorted(self._done, key=lambda t: (t.arrive, t.seq)):
            start, end = trace.arrive, max(trace.end, trace.arrive)
            for tid, free_at in enumerate(lanes):
                if free_at <= start:
                    break
            else:
                tid = len(lanes)
                lanes.append(0)
            lanes[tid] = end
            args = {
                "block": hex(trace.block), "seq": trace.seq,
                "core": trace.core, "outcome": trace.outcome,
                "probed": trace.probe_issue >= 0,
            }
            name = f"{trace.op} {trace.outcome}" if trace.outcome else trace.op
            events.append({
                "name": name, "ph": "X", "ts": _us(start),
                "dur": _us(end - start), "pid": PID_REQUESTS, "tid": tid,
                "args": args,
            })
            for child, span in self._child_spans(trace):
                lo = min(max(span[0], start), end)
                hi = min(max(span[1], lo), end)
                events.append({
                    "name": child, "ph": "X", "ts": _us(lo),
                    "dur": _us(hi - lo), "pid": PID_REQUESTS, "tid": tid,
                })
        return events

    @staticmethod
    def _child_spans(trace: _RequestTrace):
        """Yield (name, (start, end)) child spans in canonical order."""
        if trace.issue >= 0:
            yield "queue", (trace.arrive, trace.issue)
            if trace.tag_result >= trace.issue:
                yield "tag", (trace.issue, trace.tag_result)
        if trace.mm[0] >= 0:
            yield "mm_fetch", (trace.mm[0],
                               trace.mm[1] if trace.mm[1] >= 0 else trace.mm[0])
        if trace.dq is not None:
            yield "dq", trace.dq

    def to_chrome(self) -> dict:
        """The full trace as a Chrome ``trace_event`` JSON object."""
        self.unfinished = len(self._live)
        events: List[dict] = [
            self._metadata(PID_REQUESTS, None, "process_name", "requests"),
            self._metadata(PID_FLUSH, None, "process_name", "flush buffer"),
            self._metadata(PID_FLUSH, 0, "thread_name", "occupancy"),
            self._metadata(PID_FLUSH, 1, "thread_name", "drains"),
        ]
        for index in range(len(self.controller.channels)):
            pid = PID_CHANNEL_BASE + index
            events.append(self._metadata(pid, None, "process_name",
                                         f"channel {index}"))
            events.append(self._metadata(pid, TID_CA, "thread_name", "CA bus"))
            events.append(self._metadata(pid, TID_DQ, "thread_name", "DQ bus"))
            events.append(self._metadata(pid, TID_HM, "thread_name", "HM bus"))
        body = self._request_events() + self._events
        body.sort(key=lambda e: (e.get("ts", 0.0), -e.get("dur", 0.0)))
        events.extend(body)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "design": self.controller.design_name,
                "requests": len(self._done),
                "unfinished": self.unfinished,
                "dropped": self.dropped,
            },
        }

    def write(self, path) -> int:
        """Serialise :meth:`to_chrome` to ``path``; returns the event
        count written."""
        payload = self.to_chrome()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(payload["traceEvents"])
