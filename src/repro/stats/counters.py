"""Lightweight statistics primitives used throughout the simulator."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable


class CounterSet:
    """A named bag of integer counters with dict-like access.

    >>> c = CounterSet()
    >>> c.add("read_hit")
    >>> c.add("read_hit", 2)
    >>> c["read_hit"]
    3
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counts[name] += amount

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def names(self) -> Iterable[str]:
        """Names of the counters added to so far."""
        return self._counts.keys()

    def total(self, names: Iterable[str]) -> int:
        """Sum of the named counters (absent ones count zero)."""
        return sum(self._counts.get(name, 0) for name in names)

    def reset(self) -> None:
        """Drop every counter."""
        self._counts.clear()

    def as_dict(self) -> Dict[str, int]:
        """A copy of the counters as a plain dict."""
        return dict(self._counts)


class LatencyStat:
    """Streaming latency accumulator (picoseconds in, nanoseconds out)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_ps = 0

    def record(self, latency_ps: int) -> None:
        """Add one sample; a negative latency raises ``ValueError``."""
        if latency_ps < 0:
            raise ValueError(f"{self.name}: negative latency {latency_ps}")
        self.count += 1
        self.total_ps += latency_ps

    @property
    def mean_ns(self) -> float:
        """Mean latency in ns (0.0 with no samples)."""
        if self.count == 0:
            return 0.0
        return self.total_ps / self.count / 1000.0

    def reset(self) -> None:
        """Forget every sample."""
        self.count = 0
        self.total_ps = 0

    def __repr__(self) -> str:
        return (
            f"LatencyStat({self.name}: n={self.count}, mean={self.mean_ns:.2f} ns)"
        )


class OccupancyStat:
    """Tracks a level over time (e.g. flush-buffer occupancy)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples = 0
        self.total_level = 0
        self.max_level = 0

    def sample(self, level: int) -> None:
        """Record the current level."""
        self.samples += 1
        self.total_level += level
        self.max_level = max(self.max_level, level)

    @property
    def mean_level(self) -> float:
        """Mean of the sampled levels (0.0 with no samples)."""
        if self.samples == 0:
            return 0.0
        return self.total_level / self.samples

    def reset(self) -> None:
        """Forget every sample."""
        self.samples = 0
        self.total_level = 0
        self.max_level = 0
