"""Post-training bias search on a known-class validation set.

The gap between the best closed logit and the best raw dummy logit is
computed per validation instance; the gap range is divided into equal
intervals and the largest bias that still keeps the target fraction of
validation data recognised as known is selected. Model weights are never
touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datastore import check_int, check_real
from .gradcore import Array
from .network import SplitMlp

MAX_INTERVALS = 1_000_000


@dataclass
class CalibrationConfig:
    target_rate: float = 0.95
    intervals: int = 100

    def __post_init__(self):
        check_real("target_rate", self.target_rate)
        if not 0.0 < self.target_rate <= 1.0:
            raise ValueError(f"target_rate must be in (0, 1], got {self.target_rate}")
        check_int("intervals", self.intervals, 1)
        if self.intervals > MAX_INTERVALS:
            raise ValueError(f"intervals must be at most {MAX_INTERVALS}, got {self.intervals}")


@dataclass
class CalibrationResult:
    chosen_bias: float
    achieved_known_rate: float
    candidate_count: int
    gap_min: float
    gap_max: float
    target_met: bool


def logit_gaps(model: SplitMlp, features) -> Array:
    """Per instance: the knownness score at bias 0 (max closed minus max raw dummy logit)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValueError("empty validation set")
    return model.augmented_logits(features).knownness(0.0)


def candidate_biases(gaps, intervals: int) -> Array:
    """intervals+1 evenly spaced values spanning [min(gaps), max(gaps)];
    a degenerate span collapses to a single candidate."""
    gaps = np.asarray(gaps, dtype=np.float64)
    if gaps.size == 0:
        raise ValueError("empty gap list")
    if intervals < 1:
        raise ValueError(f"intervals must be at least 1, got {intervals}")
    lo = float(gaps.min())
    hi = float(gaps.max())
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, intervals + 1)


def select_bias(model: SplitMlp, features, target_rate: float, intervals: int) -> CalibrationResult:
    """Largest candidate bias whose known-rate still meets target_rate.

    If no candidate qualifies, the smallest (most permissive) candidate is
    returned with target_met=False. `features` is the feature matrix of
    known-class validation data.
    """
    gaps = logit_gaps(model, features)
    candidates = candidate_biases(gaps, intervals)
    # each candidate's known rate: the share of gaps strictly above it
    rates = (gaps.size - np.searchsorted(np.sort(gaps), candidates, "right")) / gaps.size
    # ascending candidates, non-increasing rates: the passing prefix
    failing = np.flatnonzero(~(rates >= target_rate))
    passed = int(failing[0]) if failing.size else len(candidates)
    chosen = max(passed - 1, 0)
    return CalibrationResult(
        chosen_bias=float(candidates[chosen]),
        achieved_known_rate=float(rates[chosen]),
        candidate_count=len(candidates),
        gap_min=float(gaps.min()),
        gap_max=float(gaps.max()),
        target_met=passed > 0,
    )
