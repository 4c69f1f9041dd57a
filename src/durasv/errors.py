"""Exception hierarchy shared by all durasv modules, the config field check and the text opener."""

from __future__ import annotations

import math
import numbers
import operator
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import IO, Iterator


class DurasvError(Exception):
    """Base class for every domain error raised by this package."""


class AlignmentParseError(DurasvError):
    """Base for parse errors that carry a 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DuplicateLabelError(AlignmentParseError):
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
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message, line)


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


class DimensionMismatchError(DurasvError):
    pass


class NonPositiveComponentError(DurasvError):
    pass


class UnknownUtteranceError(DurasvError):
    def __init__(self, utterance_id: str):
        super().__init__(f"unknown utterance id {utterance_id!r}")
        self.utterance_id = utterance_id


class MixedSpeakerSetError(DurasvError):
    """A trial side's utterance set holds more than one speaker's utterances."""

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

    A class, the score polarity or a trial header value is missing, or a
    score is non-finite.
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


def integer(name: str, value) -> int:
    """``value`` as a plain int. ``operator.index`` takes Python and numpy
    integers but no float or string, so a value is never rounded; a bool is
    refused too.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_fields(config) -> None:
    """Store the numbers of a frozen config dataclass as plain ints and floats.

    A field is read by its annotation, a string under postponed evaluation:
    ``int`` and ``tuple[int, ...]`` fields take only integers (see
    :func:`integer`), ``float`` fields only finite numbers.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            value = integer(f.name, value)
        elif f.type.startswith("tuple[int"):
            try:
                value = tuple(integer(f.name, v) for v in value)
            except TypeError:
                raise ConfigError(f"{f.name} must be integers, got {value!r}") from None
        elif f.type == "float":
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            value = float(value)
        else:
            continue
        object.__setattr__(config, f.name, value)


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """``path`` opened as UTF-8 text. A byte that is not UTF-8 raises
    :class:`NotUtf8Error`, counting lines as ``open()`` does: they end at
    ``\\n``, ``\\r\\n`` and a lone ``\\r``.
    """
    with open(path, "r", encoding="utf-8") as handle:
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
