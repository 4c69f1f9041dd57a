"""Phoneme inventories and phone-level alignment corpora.

An alignment corpus is a flat UTF-8 text file with one aligned phone per
line, whitespace separated::

    <speaker_id> <utterance_id> <phoneme_label> <length_frames>

Lines of one utterance must be contiguous and in temporal order.
Utterance ids may not contain ``,``, which trial files join them with. An
inventory file lists one phoneme-class label per line; blank lines and
``#`` comments are ignored. Frame counts stay opaque positive integers,
never converted to seconds, and at most 2^31 - 1: in memory each
utterance holds its phones as one ``(K, 2)`` int32 array of (class
index, frame count) rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateLabelError,
    EmptyInventoryError,
    MalformedLineError,
    NonPositiveLengthError,
    UnknownPhonemeError,
    UnknownUtteranceError,
)

ARPABET_VOWELS = (
    "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER",
    "EY", "IH", "IY", "OW", "OY", "UH", "UW",
)
ARPABET_CONSONANTS = (
    "B", "CH", "D", "DH", "F", "G", "HH", "JH", "K", "L", "M", "N",
    "NG", "P", "R", "S", "SH", "T", "TH", "V", "W", "Y", "Z", "ZH",
)
STRESS_MARKS = ("", "0", "1", "2")
POSITION_SUFFIXES = ("_B", "_E", "_I", "_S")


@dataclass(frozen=True)
class PhonemeInventory:
    """Ordered set of phoneme-class labels with label -> index lookup."""

    symbols: tuple[str, ...]
    index_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.symbols:
            raise EmptyInventoryError()
        index: dict[str, int] = {}
        for i, label in enumerate(self.symbols):
            if not label:
                raise ValueError("empty phoneme label")
            if label in index:
                raise DuplicateLabelError(label)
            index[label] = i
        object.__setattr__(self, "index_of", index)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, label: str) -> bool:
        return label in self.index_of


@dataclass(frozen=True)
class AlignedUtterance:
    """Speaker-labeled phones in temporal order.

    ``phones`` is one read-only ``(K, 2)`` int32 array, ``K >= 1``, of
    (class index, frame count) rows. Other integer arrays are stored as
    int32; a value outside the int32 range is rejected, never wrapped.
    """

    utterance_id: str
    speaker_id: str
    phones: np.ndarray  # (K, 2) int32

    def __post_init__(self) -> None:
        phones = np.asarray(self.phones)
        if phones.size == 0 or phones.dtype.kind not in "iu" or phones.shape[1:] != (2,):
            raise ValueError(f"utterance {self.utterance_id!r} needs (K >= 1, 2) integers")
        stored = phones.astype(np.int32, copy=False)
        if stored is not phones and not np.array_equal(stored, phones):
            raise ValueError(f"utterance {self.utterance_id!r}: phones exceed int32")
        stored.flags.writeable = False
        object.__setattr__(self, "phones", stored)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlignedUtterance)
            and self.utterance_id == other.utterance_id
            and self.speaker_id == other.speaker_id
            and np.array_equal(self.phones, other.phones)
        )

    def __len__(self) -> int:
        return len(self.phones)


@dataclass(frozen=True)
class Corpus:
    """Immutable utterance collection plus speaker/utterance indices."""

    inventory: PhonemeInventory
    utterances: tuple[AlignedUtterance, ...]
    by_speaker: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    by_utterance: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_speaker: dict[str, list[int]] = {}
        by_utterance: dict[str, int] = {}
        for i, utt in enumerate(self.utterances):
            if utt.utterance_id in by_utterance:
                raise ValueError(f"duplicate utterance id {utt.utterance_id!r}")
            by_utterance[utt.utterance_id] = i
            by_speaker.setdefault(utt.speaker_id, []).append(i)
        if self.utterances:
            n = self.inventory.size
            phones = np.concatenate([u.phones for u in self.utterances])
            bad = (phones[:, 0] < 0) | (phones[:, 0] >= n) | (phones[:, 1] < 1)
            if bad.any():
                ends = np.cumsum([len(u) for u in self.utterances])
                row = int(np.argmax(bad))
                utt = self.utterances[int(np.searchsorted(ends, row, side="right"))]
                raise ValueError(
                    f"utterance {utt.utterance_id!r}: phone {phones[row].tolist()} needs "
                    f"a class index in [0, {n}) and a frame count >= 1"
                )
        object.__setattr__(
            self, "by_speaker", {s: tuple(ix) for s, ix in by_speaker.items()}
        )
        object.__setattr__(self, "by_utterance", by_utterance)

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(self.by_speaker)

    def utterances_of(self, speaker_id: str) -> list[AlignedUtterance]:
        return [self.utterances[i] for i in self.by_speaker[speaker_id]]

    def utterance(self, utterance_id: str) -> AlignedUtterance:
        try:
            return self.utterances[self.by_utterance[utterance_id]]
        except KeyError:
            raise UnknownUtteranceError(utterance_id) from None

    def __len__(self) -> int:
        return len(self.utterances)


def arpabet_positional_inventory() -> PhonemeInventory:
    """Full position-in-word and stress expanded ARPAbet table (336 labels).

    Vowels appear bare and with stress marks 0/1/2; every symbol gets the
    four word-position variants ``_B``/``_E``/``_I``/``_S``.
    """
    base = list(ARPABET_CONSONANTS)
    for vowel in ARPABET_VOWELS:
        base.extend(vowel + stress for stress in STRESS_MARKS)
    labels = [sym + pos for sym in sorted(base) for pos in POSITION_SUFFIXES]
    return PhonemeInventory(tuple(labels))


def load_inventory(source: IO[str] | Iterable[str]) -> PhonemeInventory:
    """Read one phoneme label per line, keeping file order.

    Blank lines and ``#`` comments are skipped. Raises
    :class:`DuplicateLabelError` with the offending 1-based line number,
    or :class:`EmptyInventoryError` when no labels remain.
    """
    labels: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(source, start=1):
        label = raw.split("#", 1)[0].strip()
        if not label:
            continue
        if label in seen:
            raise DuplicateLabelError(label, lineno)
        seen[label] = lineno
        labels.append(label)
    return PhonemeInventory(tuple(labels))


def parse_alignment(
    source: IO[str] | Iterable[str],
    inventory: PhonemeInventory,
    exclude: Sequence[str] = (),
) -> Corpus:
    """Parse a 4-column alignment file into a :class:`Corpus`.

    Labels listed in ``exclude`` (e.g. silence markers) are dropped before
    the inventory lookup; utterances left empty by the exclusion are
    omitted. A frame count must fit int32 (at most 2^31 - 1). Every
    reported error carries its 1-based line number.
    """
    excluded = frozenset(exclude)
    utterances: list[AlignedUtterance] = []
    finished: set[str | None] = set()
    cur_utt: str | None = None
    cur_spk: str | None = None
    cur_phones: list[int] = []  # class index, frame count, class index, ...

    def flush() -> None:
        if cur_phones:
            phones = np.array(cur_phones, dtype=np.int32).reshape(-1, 2)
            utterances.append(AlignedUtterance(cur_utt, cur_spk, phones))

    for lineno, raw in enumerate(source, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 4:
            raise MalformedLineError(
                f"expected 4 whitespace-separated fields, got {len(fields)}", lineno
            )
        speaker_id, utterance_id, label, frames_text = fields
        try:
            frames = int(frames_text)
        except ValueError:
            raise MalformedLineError(
                f"frame count {frames_text!r} is not an integer", lineno
            ) from None
        if frames < 1:
            raise NonPositiveLengthError(lineno)
        if frames > 2**31 - 1:
            raise MalformedLineError(f"frame count {frames} exceeds 2^31 - 1", lineno)

        if utterance_id != cur_utt:
            if "," in utterance_id:
                raise MalformedLineError(f"',' in utterance id {utterance_id!r}", lineno)
            if utterance_id in finished:
                raise MalformedLineError(
                    f"utterance {utterance_id!r} reappears non-contiguously", lineno
                )
            flush()
            finished.add(cur_utt)
            cur_utt, cur_spk, cur_phones = utterance_id, speaker_id, []
        elif speaker_id != cur_spk:
            raise MalformedLineError(
                f"utterance {utterance_id!r} changes speaker mid-stream", lineno
            )

        if label in excluded:
            continue
        if label not in inventory:
            raise UnknownPhonemeError(label, lineno)
        cur_phones += (inventory.index_of[label], frames)

    flush()
    return Corpus(inventory, tuple(utterances))


def write_alignment(corpus: Corpus, sink: IO[str]) -> None:
    """Serialize a corpus so that ``parse_alignment`` round-trips it."""
    symbols = corpus.inventory.symbols
    for utt in corpus.utterances:
        for class_index, frames in utt.phones.tolist():
            sink.write(
                f"{utt.speaker_id} {utt.utterance_id} {symbols[class_index]} {frames}\n"
            )
