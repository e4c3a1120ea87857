"""Quantitative outputs: exploration overhead, visit histograms, variance, churn."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .core import SimConfig
from .graphs import LinkEventCounter


def exploration_overhead(hops: int, unique_visited: int) -> float:
    """Token placements (hops + 1) per unique visited node; 1.0 means no duplicates.

    The numerator counts placements rather than bare steps so a duplicate-free
    traversal scores exactly 1.0; the difference from a steps/unique ratio is
    at most 1/N.
    """
    if unique_visited < 1:
        raise ValueError("unique_visited must be >= 1")
    return (hops + 1) / unique_visited


def visit_variance(visits) -> float:
    """Population variance of per-node visit counts: (1/N) * sum_i (n_i - mean)^2."""
    return float(np.var(visits.counts))


def visit_histogram(visits) -> Dict[int, int]:
    """Exact visit-count histogram including the zero bin; values sum to N."""
    binned = np.bincount(visits.counts)
    return {int(c): int(k) for c, k in enumerate(binned) if k > 0}


def churn_rate(counter: LinkEventCounter, n_nodes: int) -> float:
    """Link events per node per second: edge events divided by N times the counted duration."""
    if counter.duration <= 0:
        raise ValueError(f"duration must be positive, got {counter.duration}")
    return counter.events / (n_nodes * counter.duration)


@dataclass
class MilestoneSnapshot:
    """Metrics captured the first time coverage crosses a target fraction."""

    target_coverage: float
    achieved_coverage: float
    sim_time: float
    hops: int
    unique_visited: int
    overhead: float
    histogram: Dict[int, int]
    visit_variance: float


@dataclass
class RunRecord:
    """Everything one run produced; serializes to the CSV outputs."""

    config: SimConfig
    milestones: List[MilestoneSnapshot] = field(default_factory=list)
    timed_out: bool = False
    churn_rate: float = 0.0
    waiting_ticks: int = 0
    replicate: int = 0
    error: Optional[str] = None

    @property
    def seed(self) -> int:
        return self.config.seed
