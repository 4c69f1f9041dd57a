"""Phoneme inventories and phone-level alignment corpora.

An alignment corpus is a flat UTF-8 text file with one aligned phone per
line, whitespace separated::

    <speaker_id> <utterance_id> <phoneme_label> <length_frames>

Lines of one utterance must be contiguous and in temporal order.
Utterance ids may not contain ``,``, which trial files join them with. An
inventory file lists one phoneme-class label per line; blank lines and
``#`` comments are ignored. Frame counts stay opaque positive integers,
they are never converted to seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple, Sequence

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


class AlignedPhone(NamedTuple):
    class_index: int
    length_frames: int


@dataclass(frozen=True)
class AlignedUtterance:
    """Speaker-labeled sequence of aligned phones, in temporal order."""

    utterance_id: str
    speaker_id: str
    phones: tuple[AlignedPhone, ...]

    def __post_init__(self) -> None:
        if not self.phones:
            raise ValueError(f"utterance {self.utterance_id!r} has no phones")

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
        n = self.inventory.size
        by_speaker: dict[str, list[int]] = {}
        by_utterance: dict[str, int] = {}
        for i, utt in enumerate(self.utterances):
            for phone in utt.phones:
                if not 0 <= phone.class_index < n:
                    raise ValueError(
                        f"utterance {utt.utterance_id!r}: class index "
                        f"{phone.class_index} outside inventory of size {n}"
                    )
                if phone.length_frames < 1:
                    raise ValueError(
                        f"utterance {utt.utterance_id!r}: non-positive phone length"
                    )
            if utt.utterance_id in by_utterance:
                raise ValueError(f"duplicate utterance id {utt.utterance_id!r}")
            by_utterance[utt.utterance_id] = i
            by_speaker.setdefault(utt.speaker_id, []).append(i)
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
    if not labels:
        raise EmptyInventoryError()
    return PhonemeInventory(tuple(labels))


def parse_alignment(
    source: IO[str] | Iterable[str],
    inventory: PhonemeInventory,
    exclude: Sequence[str] = (),
) -> Corpus:
    """Parse a 4-column alignment file into a :class:`Corpus`.

    Labels listed in ``exclude`` (e.g. silence markers) are dropped before
    the inventory lookup; utterances left empty by the exclusion are
    omitted. Every reported error carries its 1-based line number.
    """
    excluded = frozenset(exclude)
    utterances: list[AlignedUtterance] = []
    finished: set[str] = set()
    cur_utt: str | None = None
    cur_spk: str | None = None
    cur_phones: list[AlignedPhone] = []

    def flush() -> None:
        if cur_utt is not None and cur_phones:
            utterances.append(
                AlignedUtterance(cur_utt, cur_spk or "", tuple(cur_phones))
            )

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

        if utterance_id != cur_utt:
            if "," in utterance_id:
                raise MalformedLineError(f"',' in utterance id {utterance_id!r}", lineno)
            if utterance_id in finished:
                raise MalformedLineError(
                    f"utterance {utterance_id!r} reappears non-contiguously", lineno
                )
            flush()
            if cur_utt is not None:
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
        cur_phones.append(AlignedPhone(inventory.index_of[label], frames))

    flush()
    return Corpus(inventory, tuple(utterances))


def write_alignment(corpus: Corpus, sink: IO[str]) -> None:
    """Serialize a corpus so that ``parse_alignment`` round-trips it."""
    for utt in corpus.utterances:
        for phone in utt.phones:
            label = corpus.inventory.symbols[phone.class_index]
            sink.write(
                f"{utt.speaker_id} {utt.utterance_id} {label} {phone.length_frames}\n"
            )
