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
from .errors import ConfigError, EmptyInputError


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


@dataclass(frozen=True)
class Chunk:
    """Training segment of one speaker's phone stream.

    ``shift`` is the number of phones dropped in front of the chunk and
    ``first_utt_len`` the full length of the utterance the drop started
    in, so instrumented checks can verify
    ``0 <= shift <= min(first_utt_len, len(chunk))``.
    """

    speaker_id: str
    rows: DurationFeatureSequence
    source_utterances: tuple[str, ...]
    shift: int
    first_utt_len: int

    def __len__(self) -> int:
        return len(self.rows)


def sequence_from_utterances(
    utterances: Sequence[AlignedUtterance], n_classes: int
) -> DurationFeatureSequence:
    """Concatenate utterances into one sparse duration feature sequence."""
    if not utterances:
        raise EmptyInputError("no utterances given")
    return sequence_from_phones(np.concatenate([u.phones for u in utterances]), n_classes)


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
    min_len: int = 32,
    max_len: int = 256,
) -> list[Chunk]:
    """Cut one speaker's utterances into randomly shifted chunks.

    The utterances are shuffled, concatenated into a phone stream, and
    consumed left to right. Per chunk a target length ``c`` is drawn
    uniformly from ``{min_len, ..., max_len}`` and a shift ``r`` uniformly
    from ``{0, ..., min(len(u1), c)}``, where ``u1`` is the utterance the
    stream currently points into; ``r`` phones are dropped, then up to
    ``c`` phones form the chunk. A tail shorter than ``min_len`` is
    dropped. A stream that yields no chunk, one shorter than ``min_len``
    among them, yields its first ``min(len(stream), max_len)`` phones
    unshifted, so tiny speakers still contribute. Raises ``ConfigError``
    unless ``1 <= min_len <= max_len``.
    """
    if not 1 <= min_len <= max_len:
        raise ConfigError(f"chunk lengths need 1 <= min_len <= max_len, got {min_len}..{max_len}")
    if not utterances:
        raise EmptyInputError("no utterances given")
    speakers = {u.speaker_id for u in utterances}
    if len(speakers) != 1:
        raise ValueError(f"chunking mixes speakers: {sorted(speakers)}")
    speaker_id = utterances[0].speaker_id

    order = rng.permutation(len(utterances))
    shuffled = [utterances[i] for i in order]
    stream = sequence_from_utterances(shuffled, inventory.size)
    total = len(stream)

    # utterance start offsets in the concatenated stream
    utt_lengths = np.array([len(u) for u in shuffled])
    starts = np.concatenate([[0], np.cumsum(utt_lengths)[:-1]])
    utt_ids = [u.utterance_id for u in shuffled]

    def utt_at(pos: int) -> int:
        return int(np.searchsorted(starts, pos, side="right") - 1)

    def cut(start: int, stop: int, shift: int, first_len: int) -> Chunk:
        sources = tuple(utt_ids[utt_at(start) : utt_at(stop - 1) + 1])
        return Chunk(speaker_id, stream.slice(start, stop), sources, shift, first_len)

    chunks: list[Chunk] = []
    pos = 0
    while total - pos >= min_len:
        c = int(rng.integers(min_len, max_len + 1))
        first_len = int(utt_lengths[utt_at(pos)])
        r = int(rng.integers(0, min(first_len, c) + 1))
        pos += r
        take = min(c, total - pos)
        if take < min_len:
            break
        chunks.append(cut(pos, pos + take, r, first_len))
        pos += take
    if not chunks:
        # the stream is shorter than min_len, or the shift starved it; emit
        # one unshifted chunk so the speaker still contributes
        return [cut(0, min(total, max_len), 0, int(utt_lengths[0]))]
    return chunks

