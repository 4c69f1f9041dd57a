"""Speaker embeddings from trained models, and cosine trial scoring.

At test time no chunking or random shift takes place: all utterances of
one side of a trial are concatenated into a single sequence and encoded
in one pass. Embedding order follows the utterance list, so permuting it
may change the embedding (the encoder is context sensitive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import AlignedUtterance, Corpus
from .errors import EmptyInputError, ShapeMismatchError, ZeroNormError
from .evaluation import ScoreSet, TrialList, score_trials
from .features import sequence_from_utterances
from .model import ModelParams, forward, pad_batch


@dataclass(frozen=True)
class SpeakerEmbedding:
    vector: np.ndarray  # (embed_dim,)
    speaker_id: str
    utterance_ids: tuple[str, ...]


def embed(
    params: ModelParams, utterances: Sequence[AlignedUtterance]
) -> SpeakerEmbedding:
    """Encode one speaker's concatenated utterances into one vector."""
    if not utterances:
        raise EmptyInputError("no utterances given")
    speakers = {u.speaker_id for u in utterances}
    if len(speakers) != 1:
        raise ValueError(f"embedding mixes speakers: {sorted(speakers)}")
    seq = sequence_from_utterances(utterances, params.config.n_classes)
    batch = pad_batch([seq])
    vectors, _ = forward(params, batch)
    return SpeakerEmbedding(
        vectors[0],
        utterances[0].speaker_id,
        tuple(u.utterance_id for u in utterances),
    )


def cosine_score(
    a: SpeakerEmbedding | np.ndarray, b: SpeakerEmbedding | np.ndarray
) -> float:
    """Cosine similarity in [-1, 1]; identical vectors score exactly 1."""
    va = a.vector if isinstance(a, SpeakerEmbedding) else np.asarray(a, np.float64)
    vb = b.vector if isinstance(b, SpeakerEmbedding) else np.asarray(b, np.float64)
    if va.shape != vb.shape:
        raise ShapeMismatchError(f"embedding shapes differ: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for a zero-norm embedding")
    if np.array_equal(va, vb):
        return 1.0
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def score_trials_embedding(
    params: ModelParams, corpus: Corpus, trials: TrialList
) -> ScoreSet:
    """Cosine-score every trial: one batch-1 forward per distinct utterance set.

    Raises ``ShapeMismatchError`` when the model's phone-class count
    differs from the size of the corpus inventory.
    """
    if params.config.n_classes != corpus.inventory.size:
        raise ShapeMismatchError(
            f"model has {params.config.n_classes} phone classes, inventory has "
            f"{corpus.inventory.size}"
        )

    def embeddings(sets: list[list[AlignedUtterance]]) -> np.ndarray:
        vectors = np.empty((len(sets), params.config.embed_dim))
        for row, utterances in zip(vectors, sets):
            row[:] = embed(params, utterances).vector
        return vectors

    def cosines(vectors: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.array([cosine_score(vectors[i], vectors[j]) for i, j in zip(a, b)])

    return score_trials(corpus, trials, embeddings, cosines, "larger-is-similar", "embedding")
