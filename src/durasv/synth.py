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

from .alignment import AlignedUtterance, Corpus, PhonemeInventory
from .errors import ConfigError


@dataclass(frozen=True)
class SpeakerProfile:
    speaker_id: str
    log_mean: np.ndarray  # (N,) per-class log-duration mean
    log_std: np.ndarray  # (N,) per-class log-duration stddev, > 0


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int
    utts_per_speaker: int
    phones_per_utt: tuple[int, int]
    population_log_mean: np.ndarray  # (N,)
    sigma_speaker: float
    sigma_token: float
    seed: int

    def __post_init__(self) -> None:
        lo, hi = self.phones_per_utt
        if self.n_speakers < 1 or self.utts_per_speaker < 1:
            raise ConfigError("need at least one speaker and one utterance each")
        if lo < 1 or hi < lo:
            raise ConfigError("phones_per_utt must satisfy 1 <= lo <= hi")
        if self.sigma_speaker < 0.0:
            raise ConfigError("sigma_speaker must be >= 0")
        if self.sigma_token <= 0.0:
            raise ConfigError("sigma_token must be > 0")
        if np.asarray(self.population_log_mean).ndim != 1:
            raise ConfigError("population_log_mean must be a 1-d array")

    @property
    def n_classes(self) -> int:
        return int(np.asarray(self.population_log_mean).size)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "SynthConfig":
        try:
            pop = data["population_log_mean"]
            if isinstance(pop, (int, float)):
                pop = np.full(int(data["n_classes"]), float(pop))
            else:
                pop = np.asarray(pop, dtype=np.float64)
            return cls(
                n_speakers=int(data["n_speakers"]),
                utts_per_speaker=int(data["utts_per_speaker"]),
                phones_per_utt=(
                    int(data["phones_per_utt"][0]),
                    int(data["phones_per_utt"][1]),
                ),
                population_log_mean=pop,
                sigma_speaker=float(data["sigma_speaker"]),
                sigma_token=float(data["sigma_token"]),
                seed=int(data["seed"]),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad synthesis config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SynthConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
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
    pop = np.asarray(config.population_log_mean, dtype=np.float64)
    profiles = []
    for i in range(config.n_speakers):
        offset = config.sigma_speaker * rng.standard_normal(config.n_classes)
        profiles.append(
            SpeakerProfile(
                speaker_id=f"S{i:03d}",
                log_mean=pop + offset,
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
    ``max(1, round(exp(Normal(log_mean[class], sigma_token))))`` frames.
    Each speaker gets its own child random stream.
    """
    inventory = synthetic_inventory(config.n_classes)
    lo, hi = config.phones_per_utt
    utterances: list[AlignedUtterance] = []
    streams = rng.spawn(len(profiles))
    for profile, stream in zip(profiles, streams):
        for j in range(config.utts_per_speaker):
            n_phones = int(stream.integers(lo, hi + 1))
            classes = stream.integers(0, config.n_classes, size=n_phones)
            log_durations = stream.normal(
                profile.log_mean[classes], profile.log_std[classes]
            )
            lengths = np.maximum(1, np.round(np.exp(log_durations))).astype(np.int64)
            phones = np.stack([classes, lengths], axis=1)
            uid = f"{profile.speaker_id}-u{j:04d}"
            utterances.append(AlignedUtterance(uid, profile.speaker_id, phones))
    return Corpus(inventory, tuple(utterances))


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
