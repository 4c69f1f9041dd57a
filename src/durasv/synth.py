"""Synthetic alignment corpora with controllable speaker idiosyncrasy.

Speakers differ only in per-class log-duration means drawn around a
population profile; within a speaker, token durations are log-normal.
``sigma_speaker = 0`` makes speakers exchangeable (chance-level corpora),
larger values make them separable by duration statistics alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .alignment import Corpus, PhonemeInventory, _checked_phones
from .errors import (
    ConfigError, Count, Natural, NonNegative, Positive, check_fields, integer, open_text
)


@dataclass(frozen=True)
class SpeakerProfile:
    speaker_id: str
    log_mean: np.ndarray  # (N,) per-class log-duration mean
    log_std: np.ndarray  # (N,) per-class log-duration stddev, > 0


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: Count
    utts_per_speaker: Count
    phones_per_utt: tuple[Count, ...]  # [lo, hi]
    population_log_mean: np.ndarray  # (N,)
    sigma_speaker: NonNegative
    sigma_token: Positive
    seed: Natural

    def __post_init__(self) -> None:
        check_fields(self)
        span = self.phones_per_utt
        if len(span) != 2 or span[0] > span[1]:
            raise ConfigError("phones_per_utt must be [lo, hi] with lo <= hi")
        try:
            mean = np.asarray(self.population_log_mean)
            usable = mean.dtype.kind in "iuf" and mean.ndim == 1 and mean.size > 0
        except ValueError:  # a ragged nested list
            usable = False
        if not (usable and np.isfinite(mean).all()):
            raise ConfigError("population_log_mean must be a non-empty 1-d array of finite numbers")
        object.__setattr__(self, "population_log_mean", mean.astype(np.float64))

    @property
    def n_classes(self) -> int:
        return self.population_log_mean.size

    @classmethod
    def from_mapping(cls, data: Mapping) -> "SynthConfig":
        """A config from a mapping of exactly its fields, and ``n_classes``.

        ``n_classes`` sizes a single-number ``population_log_mean`` and is
        required next to one; next to a list it must equal its length.
        """
        if not isinstance(data, Mapping):
            raise ConfigError("bad synthesis config: not a JSON object")
        data = dict(data)
        n_classes = integer("n_classes", data.pop("n_classes"), 1) if "n_classes" in data else None
        if not isinstance(data.get("population_log_mean", []), (list, tuple, np.ndarray)):
            if n_classes is None:
                raise ConfigError("a single-number population_log_mean needs n_classes")
            data["population_log_mean"] = np.full(n_classes, data["population_log_mean"])
        try:
            config = cls(**data)
        except TypeError as exc:  # a missing or an unknown key
            raise ConfigError(f"bad synthesis config: {exc}") from None
        if n_classes not in (None, config.n_classes):
            raise ConfigError(
                f"n_classes is {n_classes}, population_log_mean has {config.n_classes} values"
            )
        return config

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SynthConfig":
        try:
            with open_text(path) as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_mapping(data)


def synthetic_inventory(n_classes: int) -> PhonemeInventory:
    return PhonemeInventory(tuple(f"PH{i:03d}" for i in range(n_classes)))


def sample_speakers(
    config: SynthConfig, rng: np.random.Generator
) -> list[SpeakerProfile]:
    """Draw per-speaker log-duration profiles around the population mean."""
    profiles = []
    for i in range(config.n_speakers):
        offset = config.sigma_speaker * rng.standard_normal(config.n_classes)
        profiles.append(
            SpeakerProfile(
                speaker_id=f"S{i:03d}",
                log_mean=config.population_log_mean + offset,
                log_std=np.full(config.n_classes, config.sigma_token),
            )
        )
    return profiles


def generate_corpus(
    profiles: Sequence[SpeakerProfile],
    config: SynthConfig,
    rng: np.random.Generator,
) -> Corpus:
    """Sample a corpus of log-normal phone durations from speaker profiles.

    Phone classes are uniform over the inventory; lengths are
    ``max(1, round(exp(log_mean[class] + log_std[class] * z)))`` frames
    for a standard normal ``z``, that is ``exp`` of a
    ``Normal(log_mean[class], log_std[class])`` draw.

    The draws are the determinism contract: ``rng.spawn`` gives speaker
    ``i`` the ``i``-th child stream, and each stream makes, per utterance
    in order, exactly these three calls::

        n_phones = stream.integers(lo, hi + 1)
        classes = stream.integers(0, n_classes, size=n_phones)
        z = stream.standard_normal(n_phones)

    ``log_mean[classes] + log_std[classes] * z`` is, bit for bit, what
    ``stream.normal(log_mean[classes], log_std[classes])`` would draw in
    place of the third call, as numpy computes ``normal`` by that formula;
    the tests pin the identity. So each speaker's frame counts are
    computed in one step over all its utterances, and its rows are checked
    and narrowed to int32 at once. A frame count beyond int32 raises
    ``ValueError`` naming the first utterance that holds one.
    """
    lo, hi = config.phones_per_utt
    tables: list[np.ndarray] = []  # each speaker's rows
    lengths: list[int] = []
    utterance_ids: list[str] = []
    speaker_ids: list[str] = []
    streams = rng.spawn(len(profiles))
    for profile, stream in zip(profiles, streams):
        ids = [f"{profile.speaker_id}-u{j:04d}" for j in range(config.utts_per_speaker)]
        sizes, classes, draws = [], [], []
        for _ in ids:
            n_phones = int(stream.integers(lo, hi + 1))
            sizes.append(n_phones)
            classes.append(stream.integers(0, config.n_classes, size=n_phones))
            draws.append(stream.standard_normal(n_phones))
        c, z = np.concatenate(classes), np.concatenate(draws)
        log_durations = profile.log_mean[c] + profile.log_std[c] * z
        frames = np.maximum(1, np.round(np.exp(log_durations))).astype(np.int64)
        tables.append(_checked_phones(np.stack([c, frames], axis=1), np.cumsum([0, *sizes]), ids))
        utterance_ids += ids
        speaker_ids += [profile.speaker_id] * len(ids)
        lengths += sizes
    return Corpus(
        synthetic_inventory(config.n_classes),
        np.concatenate(tables) if tables else np.empty((0, 2), np.int32),
        np.cumsum([0, *lengths]),
        utterance_ids,
        speaker_ids,
    )


def write_profiles(profiles: Sequence[SpeakerProfile], sink: IO[str]) -> None:
    payload = [
        {
            "speaker_id": p.speaker_id,
            "log_mean": [float(x) for x in p.log_mean],
            "log_std": [float(x) for x in p.log_std],
        }
        for p in profiles
    ]
    json.dump(payload, sink, indent=2, sort_keys=True)
    sink.write("\n")
