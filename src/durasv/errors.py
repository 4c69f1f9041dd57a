"""Exception hierarchy shared by all durasv modules."""

from __future__ import annotations


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
    """Score or trial set unfit for an EER: a class missing or a score non-finite."""


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
