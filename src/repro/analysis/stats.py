"""Small statistics helpers for experiment reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "max": self.maximum,
        }


def summarise(values: Sequence[float]) -> Summary:
    """Summary statistics of ``values`` (which must be non-empty)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("values must be non-empty")
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        median=float(np.median(array)),
        maximum=float(array.max()),
    )


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
    statistic=np.mean,
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for ``statistic`` of ``values``."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("values must be non-empty")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if resamples <= 0:
        raise ValueError("resamples must be positive")
    rng = np.random.default_rng(seed)
    stats = np.empty(resamples)
    for i in range(resamples):
        sample = rng.choice(array, size=array.size, replace=True)
        stats[i] = statistic(sample)
    alpha = (1.0 - confidence) / 2.0
    return float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha))
