"""Duration representations: per-phone feature rows, mean vectors, chunks.

A duration feature row is the sparse realization of an N-dimensional
vector with a single nonzero entry: the phone's frame count at its class
index. Sequences keep the (index, value) form and are densified only on
demand; at N in the hundreds the dense rows are almost entirely zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import AlignedUtterance, PhonemeInventory
from .errors import EmptyInputError, MixedSpeakerSetError, ShapeMismatchError, integer


@dataclass(frozen=True)
class DurationFeatureSequence:
    """Sparse (class index, frame count) rows of a phone stream."""

    class_indices: np.ndarray  # (K,) int64
    lengths: np.ndarray  # (K,) float64, each >= 1
    n_classes: int

    def __len__(self) -> int:
        return int(self.class_indices.size)

    def to_dense(self) -> np.ndarray:
        """Materialize the K x N matrix with one nonzero per row."""
        dense = np.zeros((len(self), self.n_classes))
        dense[np.arange(len(self)), self.class_indices] = self.lengths
        return dense

    def slice(self, start: int, stop: int) -> "DurationFeatureSequence":
        """Rows ``start:stop``, as views of this sequence's arrays."""
        return DurationFeatureSequence(
            self.class_indices[start:stop], self.lengths[start:stop], self.n_classes
        )


def sequence_from_utterances(
    utterances: Sequence[AlignedUtterance], n_classes: int
) -> DurationFeatureSequence:
    """Concatenate utterances into one sparse duration feature sequence.

    A class index of ``n_classes`` or more raises ``ShapeMismatchError``.
    """
    if not utterances:
        raise EmptyInputError("no utterances given")
    phones = np.concatenate([u.phones for u in utterances])
    if phones[:, 0].max() >= n_classes:
        bad = next(u.utterance_id for u in utterances if u.phones[:, 0].max() >= n_classes)
        raise ShapeMismatchError(f"utterance {bad!r} holds a class index >= {n_classes}")
    return sequence_from_phones(phones, n_classes)


def sequence_from_phones(phones: np.ndarray, n_classes: int) -> DurationFeatureSequence:
    """The feature sequence of ``(K, 2)`` (class index, frame count) rows."""
    return DurationFeatureSequence(
        phones[:, 0].astype(np.int64), phones[:, 1].astype(np.float64), n_classes
    )


def mean_duration_vector(
    utterances: Sequence[AlignedUtterance], inventory: PhonemeInventory
) -> np.ndarray:
    """The ``(N,)`` float64 average frame count per phoneme class.

    A class the input never holds gets the token-level mean duration over
    all phones in the input (not the mean of per-class means), so every
    component is positive.
    """
    n = inventory.size
    seq = sequence_from_utterances(utterances, n)
    counts = np.bincount(seq.class_indices, minlength=n).astype(np.float64)
    sums = np.bincount(seq.class_indices, weights=seq.lengths, minlength=n)
    present = counts > 0
    values = np.full(n, seq.lengths.sum() / len(seq))
    values[present] = sums[present] / counts[present]
    return values


def make_chunks(
    utterances: Sequence[AlignedUtterance],
    inventory: PhonemeInventory,
    rng: np.random.Generator,
    min_len: int,
    max_len: int,
) -> list[DurationFeatureSequence]:
    """Cut one speaker's utterances into randomly shifted chunks.

    The utterances are shuffled, concatenated into a phone stream, and
    consumed left to right. Per chunk a target length ``c`` is drawn
    uniformly from ``{min_len, ..., max_len}`` (the paper's 32 and 256 are
    ``TrainConfig``'s defaults) and a shift ``r`` uniformly from
    ``{0, ..., min(len(u1), c)}``, where ``u1`` is the utterance the stream
    currently points into; ``r`` phones are dropped, then up to ``c``
    phones form the chunk. Only the stream's last chunk can hold fewer than
    ``c`` phones: it takes what is left after its shift, which can be fewer
    than ``r``, and a tail shorter than ``min_len`` is dropped. A stream
    that yields no chunk, one shorter than ``min_len`` among them, yields
    its first ``min(len(stream), max_len)`` phones unshifted, so tiny
    speakers still contribute. Each chunk is a view of the stream's arrays.
    Raises ``ConfigError`` unless ``min_len`` and ``max_len`` are integers
    with ``1 <= min_len <= max_len``, ``EmptyInputError`` for no
    utterances and ``MixedSpeakerSetError``, its ids in shuffled order, for
    more than one speaker's.
    """
    min_len = integer("min_len", min_len, 1)
    max_len = integer("max_len", max_len, min_len)
    shuffled = [utterances[i] for i in rng.permutation(len(utterances))]
    speakers = sorted({u.speaker_id for u in shuffled})
    if len(speakers) > 1:
        raise MixedSpeakerSetError(tuple(u.utterance_id for u in shuffled), speakers)
    stream = sequence_from_utterances(shuffled, inventory.size)
    ends = np.cumsum([len(u) for u in shuffled])  # where each utterance's rows end

    chunks: list[DurationFeatureSequence] = []
    pos = 0
    while len(stream) - pos >= min_len:
        c = int(rng.integers(min_len, max_len + 1))
        u1 = shuffled[int(np.searchsorted(ends, pos, side="right"))]
        r = int(rng.integers(0, min(len(u1), c) + 1))
        pos += r
        take = min(c, len(stream) - pos)
        if take < min_len:
            break
        chunks.append(stream.slice(pos, pos + take))
        pos += take
    # the stream is shorter than min_len, or the shift starved it; emit one
    # unshifted chunk so the speaker still contributes
    return chunks or [stream.slice(0, max_len)]
