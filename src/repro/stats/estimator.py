"""Student-t confidence intervals over independent samples.

The estimator is stdlib-only (no scipy): two-sided critical values are
tabulated for the three confidence levels in use, and :func:`estimate`
turns per-metric sample lists into mean ± half-width. Multi-seed
evaluation (per-seed geomean ratios over K seeds) is its intended user.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

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
    """Per-metric mean and CI half-width from independent samples.

    For each metric with ``n`` samples the half-width is
    ``t(confidence, n-1) * s / sqrt(n)`` (sample standard deviation
    ``s``); a single sample reports an infinite half-width — one
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
