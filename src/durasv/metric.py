"""Training-free attack: a ratio metric over mean duration vectors.

The score between two strictly positive mean duration vectors is

    1 - (1/N) * sum_n min(a_n / b_n, b_n / a_n)

which is 0 exactly for identical vectors and approaches 1 as the
per-class duration ratios diverge. Smaller means more similar.
"""

from __future__ import annotations

import itertools

import numpy as np

from .alignment import Corpus
from .errors import NonPositiveComponentError, vector_pair
from .evaluation import ScoreSet, TrialList, score_trials

# (row, class) cells of the arrays batched scoring builds at once
_CHUNK_CELLS = 1 << 16


def duration_ratio_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric ratio distance between two finite positive duration profiles."""
    va, vb = vector_pair(a, b)
    if not np.all((va > 0.0) & (va < np.inf) & (vb > 0.0) & (vb < np.inf)):  # NaN fails too
        raise NonPositiveComponentError("mean duration vectors must be finite and positive")
    return float(1.0 - np.mean(np.minimum(va / vb, vb / va)))


def score_trials_metric(corpus: Corpus, trials: TrialList) -> ScoreSet:
    """Score every trial with the ratio metric over mean duration vectors.

    Each score equals, to the bit, ``duration_ratio_distance`` of the two
    sides' ``mean_duration_vector``. All sets' vectors are built at
    once, and all trials' distances, in chunks of at most
    ``_CHUNK_CELLS`` (row, class) cells.
    """
    return score_trials(
        corpus,
        trials,
        lambda sets: _mean_vectors(corpus, sets),
        _ratio_distances,
        "smaller-is-similar",
        "metric",
    )


def _mean_vectors(corpus: Corpus, sets: list[list[int]]) -> np.ndarray:
    """``mean_duration_vector`` of each set of utterance indices, a row per set.

    One ``np.bincount`` over ``set * N + class`` per chunk of sets adds
    each (set, class) cell's frame counts in phone order, as the per-set
    ``np.bincount`` does; the sums are exact integers in float64.
    """
    n_classes = corpus.inventory.size
    lengths = np.diff(corpus.offsets)
    vectors = np.empty((len(sets), n_classes))
    step = max(1, _CHUNK_CELLS // n_classes)
    for first in range(0, len(sets), step):
        chunk = sets[first : first + step]
        utterances = np.fromiter(itertools.chain.from_iterable(chunk), np.intp)
        phones = corpus.rows(utterances)
        set_of_utt = np.repeat(np.arange(len(chunk)), [len(s) for s in chunk])
        set_of_phone = np.repeat(set_of_utt, lengths[utterances])
        cells = set_of_phone * n_classes + phones[:, 0]
        counts = np.bincount(cells, minlength=len(chunk) * n_classes).reshape(-1, n_classes)
        sums = np.bincount(cells, phones[:, 1], len(chunk) * n_classes).reshape(-1, n_classes)
        sizes = np.bincount(set_of_phone, minlength=len(chunk))
        out = vectors[first : first + len(chunk)]
        out[:] = (sums.sum(axis=1) / sizes)[:, None]  # absent classes: the token mean
        np.divide(sums, counts, out=out, where=counts > 0)
    return vectors


def _ratio_distances(vectors: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``duration_ratio_distance(vectors[a[k]], vectors[b[k]])`` for every k.

    The row means of a C-contiguous block sum each row as the 1-D mean
    does, so the results match it to the bit.
    """
    out = np.empty(a.size)
    step = max(1, _CHUNK_CELLS // vectors.shape[1])
    for first in range(0, a.size, step):
        va = vectors[a[first : first + step]]
        vb = vectors[b[first : first + step]]
        out[first : first + step] = 1.0 - np.minimum(va / vb, vb / va).mean(axis=1)
    return out
