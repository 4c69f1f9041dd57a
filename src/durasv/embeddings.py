"""Speaker embeddings from trained models, and cosine trial scoring.

At test time no chunking or random shift takes place: all utterances of
one side of a trial are concatenated into a single sequence, and each
sequence embeds to its batch-1 forward's vector, bit for bit, however
many are embedded together (``model.embed_sequences``). Embedding order
follows the utterance list, so permuting it may change the embedding
(the encoder is context sensitive).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .alignment import AlignedUtterance, Corpus
from .errors import EmptyInputError, MixedSpeakerSetError, ShapeMismatchError, ZeroNormError
from .evaluation import ScoreSet, TrialList, score_trials
from .features import sequence_from_phones, sequence_from_utterances
from .model import ModelParams, embed_sequences


def embed(params: ModelParams, utterances: Sequence[AlignedUtterance]) -> np.ndarray:
    """The ``(embed_dim,)`` embedding of one speaker's concatenated utterances."""
    if not utterances:
        raise EmptyInputError("no utterances given")
    speakers = sorted({u.speaker_id for u in utterances})
    if len(speakers) != 1:
        raise MixedSpeakerSetError(tuple(u.utterance_id for u in utterances), speakers)
    seq = sequence_from_utterances(utterances, params.config.n_classes)
    return embed_sequences(params, [seq])[0]


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; identical vectors score exactly 1."""
    va, vb = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if va.shape != vb.shape:
        raise ShapeMismatchError(f"embedding shapes differ: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for a zero-norm embedding")
    if np.array_equal(va, vb):
        return 1.0
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def _cosines(vectors: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine_score`` of rows ``a[i]`` and ``b[i]`` for every trial ``i``.

    The same IEEE operations in the same order: one ``np.linalg.norm``
    per row and one ``np.dot`` per trial, so each score equals
    ``cosine_score``'s to the bit. Every row belongs to some trial, so a
    zero-norm row raises ``ZeroNormError``.
    """
    norms = np.array([np.linalg.norm(v) for v in vectors])
    if np.any(norms == 0.0):
        raise ZeroNormError("cosine undefined for a zero-norm embedding")
    dots = np.array([np.dot(vectors[i], vectors[j]) for i, j in zip(a, b)])
    scores = np.clip(dots / (norms[a] * norms[b]), -1.0, 1.0)
    scores[np.all(vectors[a] == vectors[b], axis=1)] = 1.0
    return scores


def score_trials_embedding(
    params: ModelParams, corpus: Corpus, trials: TrialList
) -> ScoreSet:
    """Cosine-score every trial on the embeddings of its distinct utterance sets.

    All distinct sets are embedded by one ``embed_sequences`` call, one
    encoder pass per group of sets, and each embedding and score is the
    one a batch-1 forward and ``cosine_score`` give. Raises
    ``ShapeMismatchError`` when the model's phone-class count differs
    from the size of the corpus inventory.
    """
    n_classes = params.config.n_classes
    if n_classes != corpus.inventory.size:
        raise ShapeMismatchError(
            f"model has {n_classes} phone classes, inventory has {corpus.inventory.size}"
        )

    def embeddings(sets: list[list[int]]) -> np.ndarray:
        sequences = [sequence_from_phones(corpus.rows(s), n_classes) for s in sets]
        return embed_sequences(params, sequences)

    return score_trials(corpus, trials, embeddings, _cosines, "larger-is-similar", "embedding")
