"""gem5-style statistics dump for a simulated memory system.

``dump_stats(controller)`` walks a cache controller (or the no-cache
shim) and its backing store, collecting every counter the hardware
models expose — bus busy times, turnarounds, bank accesses, queue
stats, energy ops — into a flat ``name = value`` listing, the format
simulator users grep through when a result looks suspicious.
"""

from __future__ import annotations

import io
from typing import Dict, List, Tuple


def _channel_stats(prefix: str, channel, now_ps: int) -> List[Tuple[str, object]]:
    stats: List[Tuple[str, object]] = []
    stats.append((f"{prefix}.ca.grants", channel.ca.grants))
    stats.append((f"{prefix}.ca.busy_ns", channel.ca.busy_time / 1000))
    if now_ps:
        stats.append((f"{prefix}.ca.utilisation",
                      round(channel.ca.busy_time / now_ps, 4)))
    stats.append((f"{prefix}.dq.grants", channel.dq.grants))
    stats.append((f"{prefix}.dq.busy_ns", channel.dq.busy_time / 1000))
    stats.append((f"{prefix}.dq.turnarounds", channel.dq.turnarounds))
    stats.append((f"{prefix}.dq.turnaround_ns",
                  channel.dq.turnaround_time / 1000))
    if now_ps:
        stats.append((f"{prefix}.dq.utilisation",
                      round(channel.dq.busy_time / now_ps, 4)))
    stats.append((f"{prefix}.bytes_read", channel.bytes_read))
    stats.append((f"{prefix}.bytes_written", channel.bytes_written))
    stats.append((f"{prefix}.refreshes", channel.refreshes))
    accesses = sum(bank.accesses for bank in channel.banks)
    busy = sum(bank.busy_time for bank in channel.banks)
    stats.append((f"{prefix}.bank_accesses", accesses))
    if now_ps and channel.banks:
        stats.append((f"{prefix}.bank_utilisation",
                      round(busy / (now_ps * len(channel.banks)), 4)))
    if channel.hm is not None:
        stats.append((f"{prefix}.hm.grants", channel.hm.grants))
        stats.append((f"{prefix}.hm.busy_ns", channel.hm.busy_time / 1000))
        tag_accesses = sum(bank.accesses for bank in channel.tag_banks)
        stats.append((f"{prefix}.tag_bank_accesses", tag_accesses))
    return stats


def collect_stats(sink) -> Dict[str, object]:
    """Collect every exposed counter from a controller + main memory."""
    stats: List[Tuple[str, object]] = []
    sim = sink.sim
    now = sim.now
    stats.append(("sim.now_ns", now / 1000))

    channels = getattr(sink, "channels", [])
    for index, channel in enumerate(channels):
        stats.extend(_channel_stats(f"cache.ch{index}", channel, now))
    for index, scheduler in enumerate(getattr(sink, "schedulers", [])):
        stats.append((f"cache.ch{index}.read_q", len(scheduler.read_q)))
        stats.append((f"cache.ch{index}.write_q", len(scheduler.write_q)))

    metrics = getattr(sink, "metrics", None)
    if metrics is not None:
        for name, value in sorted(metrics.outcome_counts().items()):
            stats.append((f"cache.outcomes.{name}", value))
        for name, value in sorted(metrics.events.as_dict().items()):
            stats.append((f"cache.events.{name}", value))
        stats.append(("cache.tag_check_mean_ns",
                      round(metrics.tag_check.mean_ns, 3)))
        stats.append(("cache.read_queue_delay_mean_ns",
                      round(metrics.read_queue_delay.mean_ns, 3)))
        stats.append(("cache.ledger.useful_bytes", metrics.ledger.useful_bytes))
        stats.append(("cache.ledger.unuseful_bytes",
                      metrics.ledger.unuseful_bytes))
        for name, value in sorted(metrics.ledger.by_category().items()):
            stats.append((f"cache.ledger.{name}", value))

    meter = getattr(sink, "meter", None)
    if meter is not None:
        for op, count in sorted(meter.ops.items()):
            if count:
                stats.append((f"cache.energy.ops.{op}", count))
        stats.append(("cache.energy.dq_bytes", meter.dq_bytes))
        stats.append(("cache.energy.dynamic_pj", round(meter.dynamic_pj(), 1)))

    flush = getattr(sink, "flush", None)
    if flush is not None:
        stats.append(("cache.flush.occupancy", len(flush)))
        stats.append(("cache.flush.stalls", flush.stalls))
        for name, value in sorted(flush.events.as_dict().items()):
            stats.append((f"cache.flush.{name}", value))

    main_memory = getattr(sink, "main_memory", None)
    if main_memory is not None:
        for index, channel in enumerate(main_memory.channels):
            stats.extend(_channel_stats(f"mm.ch{index}", channel, now))
        stats.append(("mm.reads_issued", main_memory.reads_issued))
        stats.append(("mm.writes_issued", main_memory.writes_issued))
        stats.append(("mm.pending", main_memory.pending()))

    return dict(stats)


def dump_stats(sink) -> str:
    """Render :func:`collect_stats` as ``name = value`` lines."""
    out = io.StringIO()
    for name, value in collect_stats(sink).items():
        out.write(f"{name} = {value}\n")
    return out.getvalue()
