"""Training-free attack: a ratio metric over mean duration vectors.

The score between two strictly positive mean duration vectors is

    1 - (1/N) * sum_n min(a_n / b_n, b_n / a_n)

which is 0 exactly for identical vectors and approaches 1 as the
per-class duration ratios diverge. Smaller means more similar.
"""

from __future__ import annotations

import numpy as np

from .alignment import Corpus
from .errors import DimensionMismatchError, NonPositiveComponentError
from .evaluation import ScoreSet, TrialList, score_trials
from .features import MeanDurationVector, mean_duration_vector


def duration_ratio_distance(
    a: MeanDurationVector | np.ndarray, b: MeanDurationVector | np.ndarray
) -> float:
    """Symmetric ratio distance between two positive duration profiles."""
    va = a.values if isinstance(a, MeanDurationVector) else np.asarray(a, np.float64)
    vb = b.values if isinstance(b, MeanDurationVector) else np.asarray(b, np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise DimensionMismatchError(f"vector shapes differ: {va.shape} vs {vb.shape}")
    if va.size == 0:
        raise DimensionMismatchError("empty vectors")
    if np.any(va <= 0.0) or np.any(vb <= 0.0):
        raise NonPositiveComponentError(
            "mean duration vectors must be strictly positive (fill guarantees this)"
        )
    return float(1.0 - np.mean(np.minimum(va / vb, vb / va)))


def score_trials_metric(corpus: Corpus, trials: TrialList) -> ScoreSet:
    """Score every trial with the ratio metric over mean duration vectors."""
    return score_trials(
        corpus,
        trials,
        lambda utts: mean_duration_vector(utts, corpus.inventory),
        duration_ratio_distance,
        "smaller-is-similar",
        "metric",
    )
