"""Phoneme inventories and phone-level alignment corpora.

An alignment corpus is a flat UTF-8 text file with one aligned phone per
line, whitespace separated::

    <speaker_id> <utterance_id> <phoneme_label> <length_frames>

Lines of one utterance must be contiguous and in temporal order.
Utterance ids may not contain ``,``, which trial files join them with. An
inventory file lists one phoneme-class label per line; blank lines and
``#`` comments are ignored, and a label may not hold whitespace. Frame
counts stay opaque positive integers, never converted to seconds, and at
most 2^31 - 1: in memory a :class:`Corpus` is one table, every phone of
every utterance a row of one ``(P, 2)`` int32 array of (class index,
frame count) rows, with each utterance a run of rows between two offsets.
An :class:`AlignedUtterance` taken from a corpus is a view of its run.

``parse_alignment`` reads its source in blocks of whole lines and works on
each block's code points in numpy: whitespace and comments are masked,
tokens counted per line, frame counts converted, labels looked up in one
sorted table, and utterance runs found by comparing adjacent ids. Each
block's rows and the first rows of its new utterances are appended to
the table, so no per-utterance object is made. It reports the same
errors, with the same line numbers, as checking the lines one by one
would.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentParseError,
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
            if label.split() != [label]:
                raise ValueError(f"phoneme label {label!r} holds whitespace")
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


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def _view(cls, utterance_id: str, speaker_id: str, phones: np.ndarray) -> AlignedUtterance:
        """An utterance over rows of a corpus table, which were checked when it was built."""
        view = object.__new__(cls)
        object.__setattr__(view, "utterance_id", utterance_id)
        object.__setattr__(view, "speaker_id", speaker_id)
        object.__setattr__(view, "phones", phones)
        return view

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlignedUtterance)
            and self.utterance_id == other.utterance_id
            and self.speaker_id == other.speaker_id
            and np.array_equal(self.phones, other.phones)
        )

    def __len__(self) -> int:
        return len(self.phones)


class Corpus:
    """Immutable utterance table plus speaker/utterance indices.

    Every phone of the corpus is one row of ``phones``, a read-only
    ``(P, 2)`` int32 array of (class index, frame count) rows; utterance
    ``i`` is ``utterance_ids[i]``, spoken by ``speakers[speaker_index[i]]``,
    and holds rows ``offsets[i]:offsets[i + 1]``, at least one. Speakers
    are in order of first appearance. ``utterance`` and ``utterances_of``
    give :class:`AlignedUtterance` views whose ``phones`` are slices of
    ``phones``.

    ``Corpus(inventory, utterances)`` builds the table from utterance
    objects and checks every phone against the inventory once.
    """

    inventory: PhonemeInventory
    phones: np.ndarray  # (P, 2) int32, read-only
    offsets: np.ndarray  # (U + 1,) int64
    utterance_ids: tuple[str, ...]
    speaker_index: np.ndarray  # (U,) int64 into speakers
    speakers: tuple[str, ...]
    by_speaker: dict[str, tuple[int, ...]]
    by_utterance: dict[str, int]

    def __init__(
        self, inventory: PhonemeInventory, utterances: Sequence[AlignedUtterance] = ()
    ) -> None:
        utterances = tuple(utterances)
        lengths = [len(u) for u in utterances]
        phones = (
            np.concatenate([u.phones for u in utterances])
            if utterances
            else np.empty((0, 2), dtype=np.int32)
        )
        self._set_table(
            inventory,
            phones,
            np.cumsum([0, *lengths]),
            tuple(u.utterance_id for u in utterances),
            [u.speaker_id for u in utterances],
        )
        n = inventory.size
        bad = (phones[:, 0] < 0) | (phones[:, 0] >= n) | (phones[:, 1] < 1)
        if bad.any():
            row = int(np.argmax(bad))
            utt_id = self.utterance_ids[int(np.searchsorted(self.offsets, row, "right")) - 1]
            raise ValueError(
                f"utterance {utt_id!r}: phone {phones[row].tolist()} needs "
                f"a class index in [0, {n}) and a frame count >= 1"
            )

    @classmethod
    def _from_table(
        cls,
        inventory: PhonemeInventory,
        phones: np.ndarray,
        offsets: np.ndarray,
        utterance_ids: tuple[str, ...],
        speaker_ids: Sequence[str],
    ) -> Corpus:
        """A corpus over a table whose phones its builder has already checked."""
        corpus = object.__new__(cls)
        corpus._set_table(inventory, phones, offsets, utterance_ids, speaker_ids)
        return corpus

    def _set_table(
        self,
        inventory: PhonemeInventory,
        phones: np.ndarray,
        offsets: np.ndarray,
        utterance_ids: tuple[str, ...],
        speaker_ids: Sequence[str],
    ) -> None:
        by_utterance = dict(zip(utterance_ids, range(len(utterance_ids))))
        if len(by_utterance) < len(utterance_ids):
            seen: set[str] = set()
            for utt_id in utterance_ids:
                if utt_id in seen:
                    raise ValueError(f"duplicate utterance id {utt_id!r}")
                seen.add(utt_id)
        speakers = tuple(dict.fromkeys(speaker_ids))  # in order of first appearance
        number = dict(zip(speakers, range(len(speakers))))
        speaker_index = np.fromiter(
            map(number.__getitem__, speaker_ids), dtype=np.int64, count=len(speaker_ids)
        )
        order = np.argsort(speaker_index, kind="stable").tolist()
        ends = np.cumsum(np.bincount(speaker_index, minlength=len(speakers))).tolist()
        by_speaker = {s: tuple(order[lo:hi]) for s, lo, hi in zip(speakers, [0, *ends], ends)}
        phones.flags.writeable = False
        table = self.__dict__
        table["inventory"] = inventory
        table["phones"] = phones
        table["offsets"] = np.asarray(offsets, dtype=np.int64)
        table["utterance_ids"] = utterance_ids
        table["speaker_index"] = speaker_index
        table["speakers"] = speakers
        table["by_speaker"] = by_speaker
        table["by_utterance"] = by_utterance

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Corpus is immutable: cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Corpus)
            and self.inventory == other.inventory
            and self.utterance_ids == other.utterance_ids
            and self.speakers == other.speakers
            and np.array_equal(self.speaker_index, other.speaker_index)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.phones, other.phones)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Corpus({len(self)} utterances, {len(self.speakers)} speakers, "
            f"{len(self.phones)} phones)"
        )

    def _view(self, i: int) -> AlignedUtterance:
        lo, hi = self.offsets[i : i + 2].tolist()
        speaker = self.speakers[self.speaker_index[i]]
        return AlignedUtterance._view(self.utterance_ids[i], speaker, self.phones[lo:hi])

    @functools.cached_property
    def utterances(self) -> tuple[AlignedUtterance, ...]:
        """Every utterance as a view; built on first use, for callers that want objects."""
        return tuple(map(self._view, range(len(self))))

    def utterances_of(self, speaker_id: str) -> list[AlignedUtterance]:
        return [self._view(i) for i in self.by_speaker[speaker_id]]

    def utterance(self, utterance_id: str) -> AlignedUtterance:
        try:
            return self._view(self.by_utterance[utterance_id])
        except KeyError:
            raise UnknownUtteranceError(utterance_id) from None

    def rows(self, utterance_indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """The phone rows of the given utterances, one after another, as one array."""
        indices = np.asarray(utterance_indices)
        starts = self.offsets[indices]
        lengths = self.offsets[indices + 1] - starts
        firsts = np.cumsum(lengths) - lengths  # where each utterance's rows land
        return self.phones[np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)]

    def __len__(self) -> int:
        return len(self.utterance_ids)


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
    :class:`DuplicateLabelError` or, for a label holding whitespace, which
    no alignment token can match, :class:`MalformedLineError`, each with
    the offending 1-based line number; or :class:`EmptyInventoryError`
    when no labels remain.
    """
    labels: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(source, start=1):
        label = raw.split("#", 1)[0].strip()
        if not label:
            continue
        if label.split() != [label]:
            raise MalformedLineError(f"phoneme label {label!r} holds whitespace", lineno)
        if label in seen:
            raise DuplicateLabelError(label, lineno)
        seen[label] = lineno
        labels.append(label)
    return PhonemeInventory(tuple(labels))


# Lines parsed per block: bounds the code-point and token arrays held at once.
_BLOCK_LINES = 1 << 12
# Code points of an id token compared as array columns; two longer ids that
# agree on these are compared as strings.
_ID_WIDTH = 64
# Whether a code point can be part of a token: it is none of those
# ``str.split()`` splits on and ``str.strip()`` strips. No code point above
# U+3000 is, so the last entry stands for all of them.
_IN_TOKEN = ~np.char.isspace(np.arange(0x3002, dtype=np.uint32).view("<U1"))
_PAD = np.uint32(0xFFFFFFFF)  # above every code point: fills a token row past its end
_COMMENT = ord("#")
_MAX_FRAMES = 2**31 - 1
# Utterances whose lines ``write_alignment`` builds as one string.
_WRITE_UTTERANCES = 1 << 9
# the vectorized checks a line can fail, numbered in the order they are made;
# the field count is check 1, and a new utterance id's checks are 5 and 6
_NOT_INT, _NOT_POSITIVE, _TOO_LARGE, _SPEAKER, _UNKNOWN = 2, 3, 4, 7, 8


def _tokenize(lines: list[str]) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A block's text, its code points, each token's start and end, tokens per line.

    The lines are joined with newlines, so no token spans two of them, and
    code point ``i`` is character ``i`` of the text. A ``#`` hides the rest
    of its line.
    """
    text = "\n".join(lines)
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    line_ends = np.cumsum(lengths + 1) - 1
    line_starts = line_ends - lengths
    solid = np.zeros(codes.size + 2, dtype=bool)  # one non-token cell at each end
    _IN_TOKEN.take(codes, out=solid[1:-1], mode="clip")
    marks = np.flatnonzero(codes == _COMMENT)
    if marks.size:
        line = np.searchsorted(line_starts, marks, side="right") - 1
        first = np.ones(marks.size, dtype=bool)
        first[1:] = line[1:] != line[:-1]
        inside = np.zeros(codes.size + 1, dtype=np.int8)
        inside[marks[first]] = 1
        inside[line_ends[line[first]]] = -1
        solid[1:-1] &= np.cumsum(inside[:-1], dtype=np.int8) == 0
    edges = np.flatnonzero(solid[1:] != solid[:-1])
    starts, ends = edges[0::2], edges[1::2]
    first_token = np.searchsorted(starts, line_starts)
    counts = np.diff(first_token, append=starts.size)
    return text, codes, starts, ends, counts


def _rows(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Each token's first ``width`` code points as one row, ``_PAD`` past its end."""
    column = np.arange(width)
    rows = codes.take(starts[:, None] + column, mode="clip")
    rows[column >= lengths[:, None]] = _PAD
    return rows


def _same_as_previous(
    text: str, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, previous: str | None
) -> np.ndarray:
    """Whether each token equals the one before it; the first is compared with ``previous``."""
    lengths = ends - starts
    width = min(int(lengths.max()), _ID_WIDTH)
    keys = _rows(codes, starts, lengths, width).view(f"V{4 * width}").ravel()
    same = np.empty(starts.size, dtype=bool)
    same[0] = text[starts[0] : ends[0]] == previous
    same[1:] = (keys[1:] == keys[:-1]) & (lengths[1:] == lengths[:-1])
    for i in np.flatnonzero(same[1:] & (lengths[1:] > width)) + 1:
        same[i] = text[starts[i] : ends[i]] == text[starts[i - 1] : ends[i - 1]]
    return same


def _frame_counts(
    text: str, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each frame-count token's value and the first check it fails (0 for none).

    A token of at most ten ASCII digits is converted arithmetically. Any
    other goes through ``int()``, which also takes a sign, underscores and
    non-ASCII digits; its value is clamped to ``[0, 2^31]``.
    """
    lengths = ends - starts
    width = min(int(lengths.max()), 10)
    column = np.arange(width)
    digits = codes.take(ends[:, None] - width + column, mode="clip").astype(np.int64) - ord("0")
    inside = column >= width - lengths[:, None]
    is_digit = (digits >= 0) & (digits <= 9)
    arithmetic = (lengths <= width) & (is_digit | ~inside).all(axis=1)
    values = np.where(inside & is_digit, digits, 0) @ 10 ** (width - 1 - column)
    not_int = []
    for i in np.flatnonzero(~arithmetic):
        try:
            values[i] = min(max(int(text[starts[i] : ends[i]]), 0), _MAX_FRAMES + 1)
        except ValueError:
            not_int.append(i)
    failed = np.select([values < 1, values > _MAX_FRAMES], [_NOT_POSITIVE, _TOO_LARGE], 0)
    failed[not_int] = _NOT_INT
    return values, failed


class _LabelTable:
    """Exact lookup of label tokens: a class index, or -1 for an excluded label.

    Labels are held as rows of ``width`` code points, one more than the
    longest label, so a longer token matches none. A token row's hash finds
    its one candidate in the sorted hashes of the labels, and the candidate
    counts only if its row equals the token's.
    """

    EXCLUDED, UNKNOWN = -1, -2

    def __init__(self, inventory: PhonemeInventory, exclude: Sequence[str]) -> None:
        entries = dict(inventory.index_of)
        entries.update(dict.fromkeys(exclude, self.EXCLUDED))
        lengths = np.array([len(label) for label in entries])
        self.width = int(lengths.max()) + 1
        codes = np.frombuffer("".join(entries).encode("utf-32-le", "surrogatepass"), np.uint32)
        rows = _rows(codes, np.cumsum(lengths) - lengths, lengths, self.width)
        for odd in itertools.count(1, 2):  # until no two labels share a hash
            step = np.uint64(odd * 0x9E3779B97F4A7C15 % 2**64)
            self.multipliers = np.arange(1, self.width + 1, dtype=np.uint64) * step | 1
            hashes = rows.astype(np.uint64) @ self.multipliers
            if np.unique(hashes).size == hashes.size:
                break
        order = np.argsort(hashes)
        self.hashes = hashes[order]
        self.keys = rows[order].view(f"V{4 * self.width}").ravel()
        self.values = np.array(list(entries.values()), dtype=np.int64)[order]

    def classes(self, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        rows = _rows(codes, starts, ends - starts, self.width)
        at = np.searchsorted(self.hashes, rows.astype(np.uint64) @ self.multipliers)
        at = np.minimum(at, self.hashes.size - 1)
        found = self.keys[at] == rows.view(self.keys.dtype).ravel()
        return np.where(found, self.values[at], self.UNKNOWN)


class _Parser:
    """Block-by-block parse state: the table so far and the last line's ids."""

    def __init__(self, inventory: PhonemeInventory, exclude: Sequence[str]) -> None:
        self.inventory = inventory
        self.labels = _LabelTable(inventory, exclude)
        self.blocks: list[np.ndarray] = []  # each block's kept (class, frames) rows
        self.n_rows = 0
        self.starts: list[np.ndarray] = []  # each block's new utterances' first rows
        self.utterance_ids: list[str] = []
        self.speaker_ids: list[str] = []
        self.finished: set[str] = set()  # every utterance id seen so far
        self.utt: str | None = None
        self.spk: str | None = None

    def corpus(self) -> Corpus:
        """The table of every utterance that kept a phone."""
        phones = np.concatenate(self.blocks) if self.blocks else np.empty((0, 2), np.int32)
        starts = np.concatenate([*self.starts, [len(phones)]]).astype(np.int64)
        kept = np.diff(starts) > 0  # labels in ``exclude`` may empty an utterance
        keep = kept.tolist()
        return Corpus._from_table(
            self.inventory,
            phones,
            starts[np.append(kept, True)],
            tuple(itertools.compress(self.utterance_ids, keep)),
            list(itertools.compress(self.speaker_ids, keep)),
        )

    def feed(self, lines: list[str], first_line: int) -> None:
        """Parse one block; raise for its first bad line, checks in the documented order."""
        text, codes, starts, ends, counts = _tokenize(lines)
        miscounted = np.flatnonzero((counts != 0) & (counts != 4))
        cut = int(miscounted[0]) if miscounted.size else len(lines)
        line_of = np.flatnonzero(counts[:cut]) + first_line  # each row's line number
        n = line_of.size
        if n:
            spk, utt, label, frames = (
                np.stack((starts[: 4 * n], ends[: 4 * n])).reshape(2, n, 4).transpose(2, 0, 1)
            )
            values, failed = _frame_counts(text, codes, *frames)
            same_utt = _same_as_previous(text, codes, *utt, self.utt)
            same_spk = _same_as_previous(text, codes, *spk, self.spk)
            classes = self.labels.classes(codes, *label)
            failed[(failed == 0) & same_utt & ~same_spk] = _SPEAKER
            failed[(failed == 0) & (classes == _LabelTable.UNKNOWN)] = _UNKNOWN
            bad = np.flatnonzero(failed)
            first_bad = int(bad[0]) if bad.size else n

            new = np.flatnonzero(~same_utt)  # rows that start an utterance
            # a new id's checks come after its line's frame count checks and
            # before its label check
            checked = new[(new < first_bad) | ((new == first_bad) & (failed[new] == _UNKNOWN))]
            utt_ids = [text[a:b] for a, b in zip(*utt[:, checked].tolist())]
            for utt_id, line in zip(utt_ids, line_of[checked].tolist()):
                if "," in utt_id:
                    raise MalformedLineError(f"',' in utterance id {utt_id!r}", line)
                if utt_id in self.finished:
                    raise MalformedLineError(
                        f"utterance {utt_id!r} reappears non-contiguously", line
                    )
                self.finished.add(utt_id)
            if first_bad < n:
                row = slice(4 * first_bad, 4 * first_bad + 4)
                fields = [text[a:b] for a, b in zip(starts[row].tolist(), ends[row].tolist())]
                raise _line_error(failed[first_bad], fields, int(line_of[first_bad]))

            kept = classes >= 0
            phones = np.empty((int(kept.sum()), 2), dtype=np.int32)
            phones[:, 0] = classes[kept]
            phones[:, 1] = values[kept]
            if new.size:
                spk_ids = [text[a:b] for a, b in zip(*spk[:, new].tolist())]
                self.starts.append(self.n_rows + np.cumsum(kept)[new] - kept[new])
                self.utterance_ids += utt_ids
                self.speaker_ids += spk_ids
                self.utt, self.spk = utt_ids[-1], spk_ids[-1]
            self.blocks.append(phones)
            self.n_rows += len(phones)
        if cut < len(lines):
            raise MalformedLineError(
                f"expected 4 whitespace-separated fields, got {counts[cut]}", first_line + cut
            )


def _line_error(check: int, fields: list[str], line: int) -> AlignmentParseError:
    _, utt_id, label, frames = fields
    if check == _NOT_INT:
        return MalformedLineError(f"frame count {frames!r} is not an integer", line)
    if check == _NOT_POSITIVE:
        return NonPositiveLengthError(line)
    if check == _TOO_LARGE:
        return MalformedLineError(f"frame count {int(frames)} exceeds 2^31 - 1", line)
    if check == _SPEAKER:
        return MalformedLineError(f"utterance {utt_id!r} changes speaker mid-stream", line)
    return UnknownPhonemeError(label, line)


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

    The source is read in blocks of whole lines, each element of it being
    one line, and each block is tokenized and checked in numpy. The first
    bad line in file order raises. Within a line the checks run in this
    order: field count, integer frame count, frame count >= 1, frame count
    <= 2^31 - 1, then ``,`` in and reappearance of a new utterance's id or
    a speaker change inside an utterance, then the label.
    """
    parser = _Parser(inventory, exclude)
    lines = iter(source)
    first_line = 1
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        parser.feed(block, first_line)
        first_line += len(block)
    return parser.corpus()


def write_alignment(corpus: Corpus, sink: IO[str]) -> None:
    """Serialize a corpus so that ``parse_alignment`` round-trips it.

    The lines of ``_WRITE_UTTERANCES`` utterances at a time are built as
    one string: each line is its utterance's ``"<speaker> <utterance> "``
    prefix, its label and its ``" <frames>\\n"`` ending, and each distinct
    frame count is formatted once per block.
    """
    labels = np.array(corpus.inventory.symbols, dtype=object)
    for first in range(0, len(corpus), _WRITE_UTTERANCES):
        block = slice(first, first + _WRITE_UTTERANCES)
        bounds = corpus.offsets[first : first + _WRITE_UTTERANCES + 1]
        speakers = corpus.speaker_index[block].tolist()
        prefixes = np.array(
            [f"{corpus.speakers[s]} {u} " for s, u in zip(speakers, corpus.utterance_ids[block])],
            dtype=object,
        )
        phones = corpus.phones[bounds[0] : bounds[-1]]
        values, which = np.unique(phones[:, 1], return_inverse=True)
        endings = np.array([f" {v}\n" for v in values.tolist()], dtype=object)
        lines = np.repeat(prefixes, np.diff(bounds)) + labels[phones[:, 0]] + endings[which]
        sink.write("".join(lines.tolist()))
