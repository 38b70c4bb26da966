"""SMARTS-style sampled simulation: windows, fast-forward, estimator.

Exact simulation prices every demand through the full controller/DRAM
timing model. Statistical sampling (SMARTS, Wunderlich et al., ISCA
2003) instead alternates short **detailed windows** — simulated
exactly, and measured — with long **functional fast-forward** phases
that keep the *architectural* state warm (tag store, dirty bits,
replacement recency) while skipping all timing: no DRAM commands, no
queueing, no simulated time. Per-window measurements then feed a
standard mean ± confidence-interval estimator, so a sampled run
reports not just an estimate but how much to trust it.

This module holds the pieces that are independent of the experiment
runner: the :class:`SamplingConfig` knob set (a ``SystemConfig`` field,
so every knob participates in the campaign cache key automatically —
``tests/test_campaign.py`` checks every leaf field), the window
:func:`plan`, the :func:`functional_fastforward` architectural replay,
and the :func:`estimate` confidence-interval calculator (stdlib-only
Student-t, no scipy). Orchestration lives in
:func:`repro.experiments.runner.run_experiment`, which switches to the
sampled path when ``config.sampling.enabled`` is set; results land on
``RunResult.sampling`` (mean, half-width, coverage, window count per
tracked metric). Tier-1 figures keep running exact by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import ConfigError

#: Two-sided Student-t critical values by confidence level; index
#: ``df-1`` for ``df <= 20``, the last entry (the normal z value) for
#: larger ``df``. Enumerated so the estimator stays stdlib-only.
_T_CRITICAL: Dict[float, Tuple[float, ...]] = {
    0.90: (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860,
           1.833, 1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746,
           1.740, 1.734, 1.729, 1.725, 1.645),
    0.95: (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
           2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
           2.110, 2.101, 2.093, 2.086, 1.960),
    0.99: (63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355,
           3.250, 3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921,
           2.898, 2.878, 2.861, 2.845, 2.576),
}


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of the sampled-simulation mode (``SystemConfig.sampling``).

    All fields participate in the campaign cache key (the key hashes
    the full ``SystemConfig``), so a sampled result can never be served
    from the cache for an exact request or for different knob values.
    """

    #: master switch; off = the exact reference path, untouched
    enabled: bool = False
    #: demands per core simulated in full detail per window
    detail_demands: int = 100
    #: demands per core replayed functionally between windows
    fastforward_demands: int = 400
    #: leading detailed windows discarded as cache/queue warm-up
    warmup_windows: int = 1
    #: two-sided confidence level of the reported intervals
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.detail_demands <= 0:
            raise ConfigError("sampling.detail_demands must be positive")
        if self.fastforward_demands <= 0:
            raise ConfigError(
                "sampling.fastforward_demands must be positive (use "
                "sampling.enabled=False for exact simulation)")
        if self.warmup_windows < 0:
            raise ConfigError("sampling.warmup_windows must be >= 0")
        if self.confidence not in _T_CRITICAL:
            raise ConfigError(
                f"sampling.confidence must be one of "
                f"{sorted(_T_CRITICAL)}, got {self.confidence!r}")


def plan(total_per_core: int, config: SamplingConfig) \
        -> List[Tuple[int, int]]:
    """Split one core's work quantum into (detail, fast-forward) pairs.

    Alternates ``detail_demands`` of exact simulation with
    ``fastforward_demands`` of functional replay until the quantum is
    consumed; the trailing pair is truncated so every demand is
    accounted exactly once. The same plan applies to every core (all
    cores advance through their streams in lockstep windows).
    """
    if total_per_core <= 0:
        raise ConfigError("total_per_core must be positive")
    windows: List[Tuple[int, int]] = []
    remaining = total_per_core
    while remaining > 0:
        detail = min(config.detail_demands, remaining)
        remaining -= detail
        fastforward = min(config.fastforward_demands, remaining)
        remaining -= fastforward
        windows.append((detail, fastforward))
    return windows


def functional_fastforward(sink: object, streams: Sequence[Iterator],
                           per_core: int) -> int:
    """Replay ``per_core`` records per stream architecturally.

    Updates only what future hit/miss outcomes depend on — residency,
    dirty bits, and replacement recency in the sink's tag store — via
    the same architectural transitions the detailed path performs
    (probe-touch on hits, fill on read misses, dirty install on
    writes), honouring the sink's ``cache_mode``. No simulated time
    passes and no metrics/energy are recorded: timing-model state
    (queues, banks, MSHRs) is deliberately untouched, which is the
    SMARTS functional-warming contract. Sinks without a tag store
    (``no_cache``) just consume their streams. Returns the number of
    records consumed (short streams may run dry early).
    """
    # Imported here: this module is imported by repro.config.system, so
    # a top-level import of the cache package would be circular.
    from repro.cache.request import Op

    tags = getattr(sink, "tags", None)
    cache_mode = getattr(sink, "cache_mode", "write_allocate")
    consumed = 0
    for stream in streams:
        for _ in range(per_core):
            record = next(stream, None)
            if record is None:
                break
            consumed += 1
            if tags is None:
                continue
            _gap, op, block, _pc = record
            if op is Op.READ:
                result = tags.probe(block, touch=True)
                if not result.outcome.is_hit and cache_mode != "write_only":
                    tags.fill(block)
            elif cache_mode == "write_around" and not tags.contains(block):
                # Write miss bypasses straight to the backend; the
                # cache is not allocated and recency is untouched.
                continue
            else:
                tags.install(block, dirty=True)
    return consumed


def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom."""
    if df <= 0:
        raise ConfigError("t_critical needs at least one degree of freedom")
    table = _T_CRITICAL.get(confidence)
    if table is None:
        raise ConfigError(
            f"confidence must be one of {sorted(_T_CRITICAL)}")
    return table[df - 1] if df <= len(table) - 1 else table[-1]


def estimate(samples: Dict[str, List[float]], confidence: float) \
        -> Dict[str, Dict[str, float]]:
    """Per-metric mean and CI half-width from per-window samples.

    For each metric with ``n`` window samples the half-width is
    ``t(confidence, n-1) * s / sqrt(n)`` (sample standard deviation
    ``s``); a single window reports an infinite half-width — one
    sample carries no dispersion information, and an honest estimator
    says so rather than reporting false certainty.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, values in samples.items():
        n = len(values)
        if n == 0:
            continue
        mean = sum(values) / n
        if n == 1:
            out[name] = {"mean": mean, "half_width": math.inf, "n": 1}
            continue
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        half = t_critical(confidence, n - 1) * math.sqrt(variance / n)
        out[name] = {"mean": mean, "half_width": half, "n": n}
    return out
