"""Distribution summaries for the paper's box-plot-style figures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus-mean summary of a sample."""

    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float
    count: int

    def row(self) -> list[str]:
        """Formatted cells for table output."""
        return [
            f"{self.mean:.3f}",
            f"{self.std:.3f}",
            f"{self.minimum:.3f}",
            f"{self.q25:.3f}",
            f"{self.median:.3f}",
            f"{self.q75:.3f}",
            f"{self.maximum:.3f}",
            str(self.count),
        ]


def distribution_summary(values: np.ndarray) -> DistributionSummary:
    """Summarize a 1-D sample (e.g. 25 per-chip normalized metrics)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    return DistributionSummary(
        mean=float(values.mean()),
        std=float(values.std()),
        minimum=float(values.min()),
        q25=float(np.percentile(values, 25)),
        median=float(np.median(values)),
        q75=float(np.percentile(values, 75)),
        maximum=float(values.max()),
        count=int(values.size),
    )
