"""Exception hierarchy shared by all durasv modules, the argument checks and the text opener."""

from __future__ import annotations

import io
import math
import numbers
import operator
import reprlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Annotated, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np


class DurasvError(Exception):
    """Base class for every domain error raised by this package."""


class AlignmentParseError(DurasvError):
    """Base for parse errors that carry a 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DuplicateLabelError(AlignmentParseError, ValueError):
    """A phoneme label repeated in an inventory.

    Also a ``ValueError``, as every other rule of an inventory or a corpus
    raises one, so ``except ValueError`` around a construction catches it.
    """

    def __init__(self, label: str, line: int | None = None):
        super().__init__(f"duplicate phoneme label {label!r}", line)
        self.label = label


class EmptyInventoryError(DurasvError):
    def __init__(self) -> None:
        super().__init__("phoneme inventory contains no labels")


class UnknownPhonemeError(AlignmentParseError):
    def __init__(self, label: str, line: int | None = None):
        super().__init__(f"phoneme label {label!r} is not in the inventory", line)
        self.label = label


class NonPositiveLengthError(AlignmentParseError):
    def __init__(self, line: int | None = None):
        super().__init__("phone length must be a positive frame count", line)


class MalformedLineError(AlignmentParseError):
    pass


class NotUtf8Error(DurasvError):
    """A byte of an input file, on 1-based ``line`` and ``offset`` bytes from
    the start of the file, is not UTF-8."""

    def __init__(self, path: str | Path, line: int, offset: int, value: int, reason: str):
        super().__init__(
            f"{path}, line {line}: can't decode byte 0x{value:02x} at byte offset {offset}"
            f" as UTF-8 ({reason})"
        )
        self.path, self.line, self.offset = path, line, offset


class EmptyInputError(DurasvError):
    pass


class NonPositiveComponentError(DurasvError):
    pass


class UnknownUtteranceError(DurasvError):
    def __init__(self, utterance_id: str):
        super().__init__(f"unknown utterance id {utterance_id!r}")
        self.utterance_id = utterance_id


class MixedSpeakerSetError(DurasvError, ValueError):
    """An utterance set that must be one speaker's, a trial side or the
    input of ``make_chunks``, holds more than one speaker's utterances.
    Also a ``ValueError``, as ``DuplicateLabelError`` is.
    """

    def __init__(self, utterance_ids: tuple[str, ...], speakers: list[str]):
        super().__init__(f"utterance set {','.join(utterance_ids)} mixes speakers {speakers}")
        self.utterance_ids = utterance_ids


class ShapeMismatchError(DurasvError):
    pass


class InsufficientSpeakersError(DurasvError):
    pass


class ZeroNormError(DurasvError):
    pass


class FormatVersionError(DurasvError):
    def __init__(self, found: int, expected: int):
        super().__init__(f"model file format version {found}, expected {expected}")
        self.found = found
        self.expected = expected


class CorruptPayloadError(DurasvError):
    pass


class NoEligibleSpeakersError(DurasvError):
    pass


class DegenerateScoreSetError(DurasvError):
    """Score or trial set unfit for an EER.

    A class, the score polarity or a trial header value is missing, a
    score is non-finite, or a trial's label or enrollment speaker
    disagrees with the speakers of its utterance sets.
    """


class TrainingDivergedError(DurasvError):
    """A training step produced a non-finite loss."""

    def __init__(self, epoch: int, step: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


class ConfigError(DurasvError, ValueError):
    """Invalid or unreadable run configuration.

    Also a ``ValueError``: it is what the config constructors raise on a
    bad argument, so ``except ValueError`` callers keep catching it.
    """


def integer(name: str, value, least: int) -> int:
    """``value`` as a plain int, once it is at least ``least``. ``operator.index``
    takes Python and numpy integers but no float or string, so a value is
    never rounded; a bool is refused too.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}")
    return value


# The range kinds of config fields; ``check_fields`` reads one from a
# field's annotation, alone or as the elements of a tuple. An int kind's
# range is ``>= least``, as ``integer`` checks it.
Count = Annotated[int, ">=", 1]
Natural = Annotated[int, ">=", 0]
Positive = Annotated[float, ">", 0]
NonNegative = Annotated[float, ">=", 0]


def vector_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of a per-pair score as float64 arrays, which must be
    1-D of one non-zero length (else :class:`ShapeMismatchError`)."""
    va, vb = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if not (va.ndim == 1 and va.shape == vb.shape and va.size):
        raise ShapeMismatchError(f"need 1-D vectors of one non-zero length: {va.shape} {vb.shape}")
    return va, vb


def field_kinds(cls) -> dict[str, tuple]:
    """``(kind, is_tuple)`` for each field of dataclass ``cls`` annotated with
    a range kind, ``is_tuple`` true for a ``tuple[kind, ...]``."""
    kinds = {}
    for name, hint in get_type_hints(cls, include_extras=True).items():
        if get_origin(hint) is tuple and get_origin(get_args(hint)[0]) is Annotated:
            kinds[name] = get_args(hint)[0], True
        elif get_origin(hint) is Annotated:
            kinds[name] = hint, False
    return kinds


def _in_range(name: str, kind, value) -> int | float:
    base, op, least = get_args(kind)
    if base is int:
        return integer(name, value, least)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if value < least or (op == ">" and value == least):
        raise ConfigError(f"{name} must be {op} {least}")
    return float(value)


def check_fields(config) -> None:
    """Store the numbers of a frozen config dataclass as plain ints and floats,
    each checked by its field's range kind (see :func:`field_kinds`): an ``int``
    kind takes integers (see :func:`integer`), a ``float`` kind finite numbers."""
    for name, (kind, is_tuple) in field_kinds(type(config)).items():
        value = getattr(config, name)
        if not is_tuple:
            value = _in_range(name, kind, value)
        else:
            try:
                items = tuple(value)
            except TypeError:
                raise ConfigError(f"{name} must be a sequence, got {value!r}") from None
            value = tuple(_in_range(name, kind, v) for v in items)
        object.__setattr__(config, name, value)


def text_source(source: IO[str] | Iterable[str]) -> IO[str] | Iterable[str]:
    """``source``, a reader's open text file or iterable of lines. One string,
    a path among them, would be read as lines of one character each, and
    bytes or a file opened in binary mode give bytes where the reader splits
    text, so each raises ``ValueError``."""
    if isinstance(source, str):
        what = "one string"
    elif isinstance(source, (bytes, bytearray, io.RawIOBase, io.BufferedIOBase)):
        what = "binary"
    else:
        return source
    raise ValueError(
        f"source {reprlib.repr(source)} is {what};"
        " source takes a file opened in text mode or an iterable of lines"
    )


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped. A
    byte that is not UTF-8 raises :class:`NotUtf8Error`, counting bytes
    from the start of the file and lines as ``open()`` does: they end at
    ``\\n``, ``\\r\\n`` and a lone ``\\r``.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            # the reader's position counts from its current chunk; decode
            # the whole file again to find the bad byte's
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = exc.start
                ends = data.count(b"\n", 0, bad) + data.count(b"\r", 0, bad)
                line = ends - data.count(b"\r\n", 0, bad) + 1
                raise NotUtf8Error(path, line, bad, data[bad], exc.reason) from None
            raise  # the file changed while it was read
