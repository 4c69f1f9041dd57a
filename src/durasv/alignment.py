"""Phoneme inventories and phone-level alignment corpora.

An alignment corpus is a flat UTF-8 text file with one aligned phone per
line, whitespace separated::

    <speaker_id> <utterance_id> <phoneme_label> <length_frames>

Lines of one utterance must be contiguous and in temporal order. No id
or label may be empty or hold whitespace or ``#``, which starts a
comment, and no utterance id may hold ``,``, which trial files join them
with. An inventory file lists one phoneme-class label per line; blank
lines and ``#`` comments are ignored. Frame counts stay opaque positive
integers, never converted to seconds, and at most 2^31 - 1: in memory a
:class:`Corpus` is one table, every phone of every utterance a row of one
``(P, 2)`` int32 array of (class index, frame count) rows, with each
utterance a run of rows between two offsets. Its one constructor checks
the table and the ids by these rules, whether the parser, the
synthesizer or a caller built it; an :class:`AlignedUtterance` is a
view of one run, taken from a corpus and never built on its own.

``parse_alignment`` parses its source in blocks of whole lines. A
file-like source is read in chunks of text, each block ending at a
chunk's last ``'\n'``; any other iterable gives one line per element,
a ``'\n'`` in it read as a space. Each block's code points, one byte
each when the block is ASCII and four when not, are worked on in numpy:
whitespace and comments are masked, tokens counted per line, frame
counts converted, labels looked up in a hash table, and utterance runs
found by comparing adjacent ids. Each block's rows and the first rows of
its new utterances are appended to the table, so no per-utterance object
is made. It reports the same errors, with the same line numbers, as
checking the lines one by one would.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AlignmentParseError,
    ConfigError,
    DuplicateLabelError,
    EmptyInventoryError,
    MalformedLineError,
    NonPositiveLengthError,
    UnknownPhonemeError,
    UnknownUtteranceError,
    text_source,
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
_MAX_FRAMES = 2**31 - 1
# Whether a code point can be part of a token: it is none of those
# ``str.split()`` splits on and ``str.strip()`` strips. No code point above
# U+3000 is, so the last entry stands for all of them.
_IN_TOKEN = ~np.char.isspace(np.arange(0x3002, dtype=np.uint32).view("<U1"))


def _check_tokens(
    kind: str, tokens: Sequence[str], banned: str, error: type[Exception] = ValueError,
    name: str = "tokens",
) -> tuple[str, ...]:
    """``tokens``, the argument ``name``, as a tuple of ``kind`` tokens.

    Raise ``error`` for one string or a value that is not iterable in place
    of the sequence, for a token that is not a string, and for a token an
    alignment file cannot carry: an empty one, or one holding whitespace or
    a character of ``banned``. Whitespace is what ``_IN_TOKEN`` says it is,
    code point by code point, so ids and labels follow the rule the parser
    splits lines by.
    """
    wanted = f"{name} takes a sequence of {kind}s"
    if isinstance(tokens, str):
        raise error(f"{name} {tokens!r} is one string; {wanted}")
    try:
        tokens = tuple(tokens)
    except TypeError:
        raise error(f"{name} {tokens!r} is not a sequence; {wanted}") from None
    try:
        joined = "".join(tokens)
    except TypeError:
        bad = next(t for t in tokens if not isinstance(t, str))
        raise error(f"{kind} {bad!r} is not a string") from None
    codes = _Text(joined, not joined.isascii()).codes
    if not (all(tokens) and _IN_TOKEN.take(codes, mode="clip").all()) or any(
        c in joined for c in banned
    ):
        bad = next(t for t in tokens if t.split() != [t] or any(c in t for c in banned))
        listed = " or ".join(map(repr, banned))
        raise error(f"{kind} {bad!r} is empty or holds whitespace or {listed}")
    return tokens


def _first_empty_run(
    offsets, n_rows: int, n_runs: int | None, unit: str, error: type[Exception] = ValueError
) -> int | None:
    """The index of the first run of ``offsets`` that holds no row, or ``None``.

    The rule for cutting ``n_rows`` rows into runs, run ``i`` holding rows
    ``offsets[i]:offsets[i + 1]``: ``offsets`` is a 1-D integer array that
    runs from 0 to ``n_rows``, with one entry per ``unit`` and one more, so
    ``n_runs + 1`` entries (at least two with no ``n_runs``). Otherwise it
    raises ``error``. Every run must hold a row: the caller raises, naming
    the run, for the index this returns.
    """
    ends = np.asarray(offsets)
    sized = ends.size >= 2 if n_runs is None else ends.shape == (n_runs + 1,)
    if not (sized and ends.ndim == 1 and ends.dtype.kind in "iu") or (
        ends[[0, -1]].tolist() != [0, n_rows]
    ):
        raise error(f"offsets must run from 0 to {n_rows}, one per {unit} and one more")
    empty = np.flatnonzero(ends[1:] <= ends[:-1])
    return int(empty[0]) if empty.size else None


def _checked_phones(
    phones, offsets: Sequence[int] | np.ndarray, utterance_ids: Sequence[str],
    n_classes: int | None = None,
) -> np.ndarray:
    """``phones`` as a read-only int32 array, once every row is checked.

    Utterance ``utterance_ids[i]`` holds rows ``offsets[i]:offsets[i + 1]``,
    at least one. Rows are integer (class, frames) pairs, the class in
    ``[0, n_classes)`` (``>= 0`` with no ``n_classes``) and frames in
    ``[1, 2^31 - 1]``, so the cast never wraps. A ``ValueError`` names the
    utterance of the first bad row, looked for only once column minima and
    maxima show one.
    """
    table = np.asarray(phones)
    if table.dtype.kind not in "iu" or table.shape[1:] != (2,):
        raise ValueError("corpus needs (K, 2) integer phones")
    empty = _first_empty_run(offsets, len(table), len(utterance_ids), "utterance")
    if empty is not None:
        raise ValueError(f"utterance {utterance_ids[empty]!r} holds no phones")
    classes, frames = table[:, 0], table[:, 1]
    top = _MAX_FRAMES + 1 if n_classes is None else n_classes
    if len(table) and not (
        0 <= classes.min() <= classes.max() < top
        and 1 <= frames.min() <= frames.max() <= _MAX_FRAMES
    ):
        row = np.argmax((classes < 0) | (classes >= top) | (frames < 1) | (frames > _MAX_FRAMES))
        utt_id = utterance_ids[np.searchsorted(offsets, row, "right") - 1]
        values = table[row].tolist()
        if not all(-_MAX_FRAMES - 1 <= v <= _MAX_FRAMES for v in values):
            raise ValueError(f"utterance {utt_id!r}: phones exceed int32")
        bound = ">= 0" if n_classes is None else f"in [0, {n_classes})"
        raise ValueError(
            f"utterance {utt_id!r}: phone {values} needs a class index {bound}"
            " and a frame count >= 1"
        )
    stored = table.astype(np.int32, copy=False)
    stored.flags.writeable = False
    return stored


@dataclass(frozen=True)
class PhonemeInventory:
    """Ordered set of phoneme-class labels with label -> index lookup.

    The labels are kept as a tuple; one string, or a value that is not
    iterable, in place of the sequence raises ``ValueError``, as a label an
    alignment file cannot carry does.
    """

    symbols: tuple[str, ...]
    index_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        symbols = _check_tokens("phoneme label", self.symbols, "#", name="symbols")
        object.__setattr__(self, "symbols", symbols)
        if not self.symbols:
            raise EmptyInventoryError()
        index = dict(zip(self.symbols, range(len(self.symbols))))
        if len(index) < len(self.symbols):  # a label's entry holds its last index
            raise DuplicateLabelError(next(s for i, s in enumerate(self.symbols) if index[s] != i))
        object.__setattr__(self, "index_of", index)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, label: str) -> bool:
        return label in self.index_of


@dataclass(frozen=True, slots=True, eq=False)
class AlignedUtterance:
    """One utterance of a :class:`Corpus`, as a view of its run of rows.

    ``phones`` is the read-only ``(K, 2)`` int32 slice, ``K >= 1``, of the
    corpus table that holds the utterance's (class index, frame count)
    rows, checked when the corpus was built. ``Corpus.utterance``,
    ``utterances_of`` and ``utterances`` give views; none is built on its
    own.
    """

    utterance_id: str
    speaker_id: str
    phones: np.ndarray  # (K, 2) int32, read-only

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

    ``Corpus(inventory, phones, offsets, utterance_ids, speaker_ids)``,
    one speaker id per utterance, is the one way a corpus is built. It
    checks the table once: integer rows of a class below the inventory size
    and a frame count in ``[1, 2^31 - 1]``, stored as int32 and never
    wrapped; offsets that give every utterance a row; unique utterance
    ids; ids an alignment file can carry (none empty or holding whitespace
    or ``#``, no utterance id holding ``,``); and id sequences that are
    iterable and not one string. Each failure raises ``ValueError``. The
    utterance ids are kept as a tuple.
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
        self,
        inventory: PhonemeInventory,
        phones: np.ndarray,
        offsets: Sequence[int] | np.ndarray,
        utterance_ids: Sequence[str],
        speaker_ids: Sequence[str],
    ) -> None:
        utterance_ids = _check_tokens("utterance id", utterance_ids, "#,", name="utterance_ids")
        speaker_ids = _check_tokens("speaker id", speaker_ids, "#", name="speaker_ids")
        if len(speaker_ids) != len(utterance_ids):
            raise ValueError(f"{len(speaker_ids)} speaker ids for {len(utterance_ids)} utterances")
        by_utterance = dict(zip(utterance_ids, range(len(utterance_ids))))
        if len(by_utterance) < len(utterance_ids):  # an id's entry holds its last index
            dup = next(u for i, u in enumerate(utterance_ids) if by_utterance[u] != i)
            raise ValueError(f"duplicate utterance id {dup!r}")
        speakers = tuple(dict.fromkeys(speaker_ids))  # in order of first appearance
        phones = _checked_phones(phones, offsets, utterance_ids, inventory.size)
        number = dict(zip(speakers, range(len(speakers))))
        speaker_index = np.fromiter(
            map(number.__getitem__, speaker_ids), dtype=np.int64, count=len(speaker_ids)
        )
        order = np.argsort(speaker_index, kind="stable").tolist()
        ends = np.cumsum(np.bincount(speaker_index, minlength=len(speakers))).tolist()
        by_speaker = {s: tuple(order[lo:hi]) for s, lo, hi in zip(speakers, [0, *ends], ends)}
        offsets = np.array(offsets, dtype=np.int64)  # a copy, so the checked runs cannot move
        offsets.flags.writeable = speaker_index.flags.writeable = False
        table = self.__dict__
        table["inventory"] = inventory
        table["phones"] = phones
        table["offsets"] = offsets
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
        return AlignedUtterance(self.utterance_ids[i], speaker, self.phones[lo:hi])

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
        """The phone rows of the given utterances, one after another, as one array.

        An index that is not an integer in ``[0, len(self))``, a bool
        among them, raises ``IndexError`` naming the first such index, and
        so does an index array that is not 1-D, naming its shape.
        """
        indices = np.asarray(utterance_indices)
        n = len(self)
        if indices.ndim != 1:
            raise IndexError(f"utterance indices must be 1-D, got shape {indices.shape}")
        if indices.size and (
            indices.dtype.kind not in "iu" or not 0 <= indices.min() <= indices.max() < n
        ):
            bad = next(i for i in indices.ravel().tolist() if type(i) is not int or not 0 <= i < n)
            raise IndexError(f"utterance index {bad!r} is not an integer in [0, {n})")
        # ``indices + 1`` would wrap in a narrow type, and ``np.asarray([])``
        # is float; no index is lost in the cast
        indices = indices.astype(np.int64, copy=False)
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
    the offending 1-based line number; :class:`EmptyInventoryError` when
    no labels remain; or ``ValueError`` for one string, bytes or a file
    opened in binary mode as ``source``.
    """
    labels: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text_source(source), start=1):
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


# Lines per block of a source that is not file-like, and characters per
# chunk read from one that is: each bounds the arrays a block holds at once.
_BLOCK_LINES = 1 << 12
_CHUNK_CHARS = 1 << 17
# Code points of an id token compared as array columns (a multiple of 8);
# two longer ids that agree on these are compared as strings.
_ID_WIDTH = 64
_NEWLINE, _COMMENT = ord("\n"), ord("#")
# Utterances whose lines ``write_alignment`` builds as one string.
_WRITE_UTTERANCES = 1 << 9
# the vectorized checks a line can fail, numbered in the order they are made;
# the field count is check 1, and a new utterance id's checks are 5 and 6
_NOT_INT, _NOT_POSITIVE, _TOO_LARGE, _SPEAKER, _UNKNOWN = 2, 3, 4, 7, 8


@functools.cache
def _pad_masks(size: int, n_words: int) -> np.ndarray:
    """``[j, n]``: the bits of word ``j`` that hold code points ``n`` and on."""
    per_word = 8 // size
    point = (1 << 8 * size) - 1
    masks = np.array(
        [
            [
                sum(point << 8 * size * c for c in range(per_word) if j * per_word + c >= n)
                for n in range(n_words * per_word + 1)
            ]
            for j in range(n_words)
        ],
        dtype=np.uint64,
    )
    masks.flags.writeable = False  # one cached array serves every caller
    return masks


class _Text:
    """A text as code points: one byte each, or four when ``wide``.

    ``words`` views the code points as little-endian 8-byte words, one
    starting at each code point and one at the end of the text, over 8
    zero bytes that follow the text.
    """

    def __init__(self, text: str, wide: bool) -> None:
        raw = text.encode("utf-32-le", "surrogatepass") if wide else text.encode("ascii")
        buffer = np.zeros(len(raw) + 8, dtype=np.uint8)
        buffer[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        self.text = text
        self.codes = buffer[: len(raw)].view(np.uint32 if wide else np.uint8)
        size = self.codes.itemsize
        self.words = np.ndarray((self.codes.size + 1,), "<u8", buffer, strides=(size,))

    def keys(self, starts: np.ndarray, lengths: np.ndarray, n_words: int) -> list[np.ndarray]:
        """Each token's first ``n_words`` words, all bits set past its end.

        A set code point is above every code point of the text, so two keys
        are equal only if their tokens agree on the code points they cover.
        A word that would start past a token's end is read at its end
        instead, as all its bits are set anyway, so no read leaves ``words``.
        """
        per_word = 8 // self.codes.itemsize
        capped = np.minimum(lengths, n_words * per_word)
        masks = _pad_masks(self.codes.itemsize, n_words)
        ends = starts + lengths
        return [
            self.words[np.minimum(starts + j * per_word, ends)] | masks[j][capped]
            for j in range(n_words)
        ]


def _tokenize(text: _Text) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each token's start and end, and the number of tokens on each line.

    A line ends at each ``'\\n'`` and at the end of a text that does not
    end with one. A ``#`` hides the rest of its line.
    """
    codes = text.codes
    eols = np.flatnonzero(codes == _NEWLINE)
    if not text.text.endswith("\n"):
        eols = np.append(eols, codes.size)
    line_starts = np.concatenate(([0], eols[:-1] + 1))
    solid = np.zeros(codes.size + 2, dtype=bool)  # one non-token cell at each end
    _IN_TOKEN.take(codes, out=solid[1:-1], mode="clip")
    marks = np.flatnonzero(codes == _COMMENT)
    if marks.size:
        line = np.searchsorted(line_starts, marks, side="right") - 1
        first = np.ones(marks.size, dtype=bool)
        first[1:] = line[1:] != line[:-1]
        inside = np.zeros(codes.size + 1, dtype=np.int8)
        inside[marks[first]] = 1
        inside[eols[line[first]]] = -1
        solid[1:-1] &= np.cumsum(inside[:-1], dtype=np.int8) == 0
    edges = np.flatnonzero(solid[1:] != solid[:-1])
    starts, ends = edges[0::2], edges[1::2]
    counts = np.diff(np.searchsorted(starts, line_starts), append=starts.size)
    return starts, ends, counts


def _same_as_previous(
    text: _Text, starts: np.ndarray, ends: np.ndarray, previous: str | None
) -> np.ndarray:
    """Whether each token equals the one before it; the first is compared with ``previous``."""
    lengths = ends - starts
    per_word = 8 // text.codes.itemsize
    n_words = -(-min(int(lengths.max()), _ID_WIDTH) // per_word)
    s = text.text
    same = np.empty(starts.size, dtype=bool)
    same[0] = s[starts[0] : ends[0]] == previous
    # keys of ids longer than the columns hold no pad bits, so equal keys
    # alone do not tell a 64-code-point id from a longer one it starts
    same[1:] = lengths[1:] == lengths[:-1]
    for column in text.keys(starts, lengths, n_words):
        same[1:] &= column[1:] == column[:-1]
    for i in np.flatnonzero(same[1:] & (lengths[1:] > n_words * per_word)) + 1:
        same[i] = s[starts[i] : ends[i]] == s[starts[i - 1] : ends[i - 1]]
    return same


def _frame_counts(
    text: _Text, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each frame-count token's value and the first check it fails (0 for none).

    A token of at most ten ASCII digits is converted arithmetically. Any
    other goes through ``int()``, which also takes a sign, underscores and
    non-ASCII digits; its value is clamped to ``[0, 2^31]``.
    """
    lengths = ends - starts
    width = min(int(lengths.max()), 10)
    values = np.zeros(starts.size, dtype=np.int64)
    arithmetic = lengths <= width
    for place in range(width):  # code points back from each token's end
        digits = text.codes.take(ends - 1 - place, mode="clip").astype(np.int64) - ord("0")
        inside = lengths > place
        is_digit = (digits >= 0) & (digits <= 9)
        arithmetic &= is_digit | ~inside
        values += np.where(inside & is_digit, digits, 0) * 10**place
    not_int = []
    for i in np.flatnonzero(~arithmetic):
        try:
            values[i] = min(max(int(text.text[starts[i] : ends[i]]), 0), _MAX_FRAMES + 1)
        except ValueError:
            not_int.append(i)
    failed = np.select([values < 1, values > _MAX_FRAMES], [_NOT_POSITIVE, _TOO_LARGE], 0)
    failed[not_int] = _NOT_INT
    return values, failed


class _LabelTable:
    """Exact lookup of label tokens at one code-point width.

    A token's class index, or ``EXCLUDED`` for a label in ``exclude`` and
    ``UNKNOWN`` for any other token. A label's key covers one code point
    more than the longest label, so a longer token matches none. Keys sit
    in an open-addressing hash table at most an eighth full: a token's
    probe starts at its key's slot and walks on until it meets its label
    or an empty slot, so the lookup is exact whatever the keys hash to.
    The table of one byte per code point holds only the ASCII labels,
    since no other label can match an ASCII token.
    """

    EXCLUDED, UNKNOWN = -1, -2
    _MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, inventory: PhonemeInventory, exclude: Sequence[str], wide: bool) -> None:
        entries = dict(inventory.index_of)
        entries.update(dict.fromkeys(exclude, self.EXCLUDED))
        if not wide:
            entries = {label: i for label, i in entries.items() if label.isascii()}
        lengths = np.array([len(label) for label in entries], dtype=np.int64)
        self.n_words = -(-(int(lengths.max(initial=0)) + 1) * (4 if wide else 1) // 8)
        text = _Text("".join(entries), wide)
        keys = text.keys(np.cumsum(lengths) - lengths, lengths, self.n_words)
        n = len(entries)
        bits = max(3, (8 * n - 1).bit_length())
        self.shift = np.uint64(64 - bits)
        self.mask = (1 << bits) - 1
        self.slots = np.full(1 << bits, n, dtype=np.int64)  # label ``n``: an empty slot
        for label, slot in enumerate(self._hash(keys).tolist()):
            while self.slots[slot] < n:
                slot = (slot + 1) & self.mask
            self.slots[slot] = label
        # the empty label's key is never matched: a probe stops at an empty slot
        self.keys = [np.append(column, np.uint64(0)) for column in keys]
        self.values = np.array([*entries.values(), self.UNKNOWN], dtype=np.int64)

    def _hash(self, keys: list[np.ndarray]) -> np.ndarray:
        h = keys[0] * self._MULTIPLIER
        for column in keys[1:]:
            h = (h ^ column) * self._MULTIPLIER
        return (h >> self.shift).astype(np.int64)

    def _probe_on(self, keys: list[np.ndarray], labels: np.ndarray) -> np.ndarray:
        """Whether each token's slot holds a label other than the token."""
        other = self.keys[0][labels] != keys[0]
        for mine, theirs in zip(self.keys[1:], keys[1:]):
            other |= mine[labels] != theirs
        return other & (labels < self.values.size - 1)

    def classes(self, text: _Text, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        keys = text.keys(starts, ends - starts, self.n_words)
        slots = self._hash(keys)
        labels = self.slots[slots]
        probing = np.flatnonzero(self._probe_on(keys, labels))
        while probing.size:
            slots[probing] = (slots[probing] + 1) & self.mask
            labels[probing] = self.slots[slots[probing]]
            probing = probing[self._probe_on([k[probing] for k in keys], labels[probing])]
        return self.values[labels]


class _Parser:
    """Block-by-block parse state: the table so far and the last line's ids."""

    def __init__(self, inventory: PhonemeInventory, exclude: Sequence[str]) -> None:
        self.inventory = inventory
        # one label table per code-point width, in bytes
        self.labels = {size: _LabelTable(inventory, exclude, size == 4) for size in (1, 4)}
        self.blocks: list[np.ndarray] = []  # each block's kept (class, frames) rows
        self.n_rows = 0
        self.n_lines = 0
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
        return Corpus(
            self.inventory,
            phones,
            starts[np.append(kept, True)],
            tuple(itertools.compress(self.utterance_ids, keep)),
            list(itertools.compress(self.speaker_ids, keep)),
        )

    def feed(self, block: str) -> None:
        """Parse one block of whole lines, ended as ``_tokenize`` says.

        Raise for its first bad line, checks in the documented order.
        """
        text = _Text(block, not block.isascii())
        starts, ends, counts = _tokenize(text)
        first_line = self.n_lines + 1
        self.n_lines += counts.size
        miscounted = np.flatnonzero((counts != 0) & (counts != 4))
        cut = int(miscounted[0]) if miscounted.size else counts.size
        line_of = np.flatnonzero(counts[:cut]) + first_line  # each row's line number
        n = line_of.size
        if n:
            spk, utt, label, frames = (
                np.stack((starts[: 4 * n], ends[: 4 * n])).reshape(2, n, 4).transpose(2, 0, 1)
            )
            values, failed = _frame_counts(text, *frames)
            same_utt = _same_as_previous(text, *utt, self.utt)
            same_spk = _same_as_previous(text, *spk, self.spk)
            classes = self.labels[text.codes.itemsize].classes(text, *label)
            failed[(failed == 0) & same_utt & ~same_spk] = _SPEAKER
            failed[(failed == 0) & (classes == _LabelTable.UNKNOWN)] = _UNKNOWN
            bad = np.flatnonzero(failed)
            first_bad = int(bad[0]) if bad.size else n

            new = np.flatnonzero(~same_utt)  # rows that start an utterance
            # a new id's checks come after its line's frame count checks and
            # before its label check
            checked = new[(new < first_bad) | ((new == first_bad) & (failed[new] == _UNKNOWN))]
            utt_ids = [block[a:b] for a, b in zip(*utt[:, checked].tolist())]
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
                fields = [block[a:b] for a, b in zip(starts[row].tolist(), ends[row].tolist())]
                raise _line_error(failed[first_bad], fields, int(line_of[first_bad]))

            kept = classes >= 0
            phones = np.empty((int(kept.sum()), 2), dtype=np.int32)
            phones[:, 0] = classes[kept]
            phones[:, 1] = values[kept]
            if new.size:
                spk_ids = [block[a:b] for a, b in zip(*spk[:, new].tolist())]
                self.starts.append(self.n_rows + np.cumsum(kept)[new] - kept[new])
                self.utterance_ids += utt_ids
                self.speaker_ids += spk_ids
                self.utt, self.spk = utt_ids[-1], spk_ids[-1]
            self.blocks.append(phones)
            self.n_rows += len(phones)
        if cut < counts.size:
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


def _chunk_blocks(source: IO[str]) -> Iterator[str]:
    """The source's text in blocks of whole lines, each read chunk cut after its last ``'\\n'``.

    The rest of a chunk opens the next block; a line longer than a chunk
    spans as many as it needs.
    """
    pieces: list[str] = []
    while chunk := source.read(_CHUNK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            pieces.append(chunk[:cut])
            yield "".join(pieces)
            pieces = [chunk[cut:]]
        else:
            pieces.append(chunk)
    if rest := "".join(pieces):
        yield rest


def parse_alignment(
    source: IO[str] | Iterable[str],
    inventory: PhonemeInventory,
    exclude: Sequence[str] = (),
) -> Corpus:
    """Parse a 4-column alignment file into a :class:`Corpus`.

    Labels listed in ``exclude`` (e.g. silence markers) are dropped before
    the inventory lookup; utterances left empty by the exclusion are
    omitted. An ``exclude`` label no line could carry, being empty or
    holding whitespace or ``#``, raises ``ConfigError``, and so does one
    string or a value that is not iterable in place of the sequence of
    labels. A frame count must fit int32 (at most 2^31 - 1). Every
    reported error carries its 1-based line number.

    A file-like source, one with ``read``, is read in chunks of text split
    into lines at ``'\\n'``, as ``open()`` in text mode and ``io.StringIO``
    deliver them. Any other iterable gives one line per element, each
    ``'\\n'`` in it read as a space. One string, bytes or a file opened in
    binary mode raises ``ValueError``.
    Either way the lines are parsed in blocks, each tokenized and checked
    in numpy at one byte per code point when the block is ASCII and four
    when not. The first bad line in file order raises. Within a line the
    checks run in this order: field count, integer frame count, frame
    count >= 1, frame count <= 2^31 - 1, then ``,`` in and reappearance
    of a new utterance's id or a speaker change inside an utterance, then
    the label.
    """
    exclude = _check_tokens("excluded label", exclude, "#", ConfigError, "exclude")
    parser = _Parser(inventory, exclude)
    if hasattr(text_source(source), "read"):
        for block in _chunk_blocks(source):
            parser.feed(block)
    else:
        lines = iter(source)
        while block := list(itertools.islice(lines, _BLOCK_LINES)):
            parser.feed("\n".join(line.replace("\n", " ") for line in block) + "\n")
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
