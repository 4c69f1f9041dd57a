"""Verification trials, EER computation, and result tables.

Scores carry an explicit polarity so that similarity-like scores (cosine,
larger means more similar) and distance-like scores (ratio metric,
smaller means more similar) run through one EER routine. The reported
confidence interval uses the binomial normal approximation with n equal
to the total trial count; the convention is declared in the report
output.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from statistics import NormalDist
from typing import IO, Callable, Iterable, Literal, TypeVar, get_args

import numpy as np

from .alignment import AlignedUtterance, Corpus
from .errors import (
    ConfigError,
    DegenerateScoreSetError,
    MalformedLineError,
    NoEligibleSpeakersError,
)

logger = logging.getLogger(__name__)

Polarity = Literal["larger-is-similar", "smaller-is-similar"]
V = TypeVar("V")

CI_CONVENTION = "normal-approximation: z * sqrt(eer*(1-eer)/n), n = total trials"


@dataclass(frozen=True)
class Trial:
    """One verification comparison between disjoint utterance sets."""

    enroll_speaker: str
    enroll_utts: tuple[str, ...]
    trial_utts: tuple[str, ...]
    is_target: bool

    def __post_init__(self) -> None:
        if set(self.enroll_utts) & set(self.trial_utts):
            raise ValueError("enrollment and trial utterance sets overlap")


@dataclass(frozen=True)
class TrialList:
    trials: tuple[Trial, ...]
    n_enroll: int
    n_trial: int
    seed: int
    skipped_speakers: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScoreSet:
    """Per-trial scores, target labels, and score polarity."""

    scores: np.ndarray  # (n,) float64
    labels: np.ndarray  # (n,) bool, True = target trial
    polarity: Polarity
    enroll_ids: tuple[str, ...] | None = None
    trial_ids: tuple[str, ...] | None = None
    n_enroll: int | None = None
    n_trial: int | None = None
    model: str | None = None

    def __post_init__(self) -> None:
        if self.scores.shape != self.labels.shape:
            raise ValueError("scores and labels differ in length")
        if not np.all(np.isfinite(self.scores)):
            raise DegenerateScoreSetError("score set holds non-finite scores")


@dataclass(frozen=True)
class EerCell:
    """One table cell: a condition/model pair evaluated to EER +- CI."""

    condition: str
    model: str
    n_enroll: int
    n_trial: int
    eer: float
    threshold: float
    ci_halfwidth: float
    n_trials: int


@dataclass(frozen=True)
class EerTable:
    cells: tuple[EerCell, ...]
    ci_convention: str = CI_CONVENTION

    def to_json(self) -> str:
        payload = {
            "ci_convention": self.ci_convention,
            "cells": [vars(c) for c in self.cells],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render(self) -> str:
        lines = ["condition model n_enroll n_trial eer ci_halfwidth n_trials"]
        for c in self.cells:
            lines.append(
                f"{c.condition} {c.model} {c.n_enroll} {c.n_trial} "
                f"{c.eer:.4f} {c.ci_halfwidth:.4f} {c.n_trials}"
            )
        return "\n".join(lines)


def build_trials(
    corpus: Corpus,
    n_enroll: int,
    n_trial: int,
    seed: int,
    max_nontarget_per_speaker: int = 20,
) -> TrialList:
    """Construct target and nontarget trials from a corpus.

    Each speaker with at least ``n_enroll + n_trial`` utterances gets one
    enrollment set and as many disjoint trial sets as the remaining
    utterances allow (all target trials). Nontarget trials pair each
    enrollment set with up to ``max_nontarget_per_speaker`` trial sets
    sampled from other speakers. Deterministic under ``seed``.
    """
    if n_enroll < 1 or n_trial < 1 or max_nontarget_per_speaker < 0:
        raise ConfigError("need n_enroll >= 1, n_trial >= 1 and max_nontarget >= 0")
    rng = np.random.default_rng([seed, n_enroll, n_trial])

    eligible: list[str] = []
    skipped: list[str] = []
    for speaker in corpus.speakers:
        if len(corpus.by_speaker[speaker]) >= n_enroll + n_trial:
            eligible.append(speaker)
        else:
            skipped.append(speaker)
    if skipped:
        logger.warning(
            "skipping %d speaker(s) with fewer than %d utterances",
            len(skipped),
            n_enroll + n_trial,
        )
    if not eligible:
        raise NoEligibleSpeakersError(
            f"no speaker has the {n_enroll}+{n_trial} utterances this setup needs"
        )

    enroll_sets: dict[str, tuple[str, ...]] = {}
    trial_sets: dict[str, list[tuple[str, ...]]] = {}
    for speaker in eligible:
        utt_ids = [corpus.utterances[i].utterance_id for i in corpus.by_speaker[speaker]]
        order = rng.permutation(len(utt_ids))
        shuffled = [utt_ids[i] for i in order]
        enroll_sets[speaker] = tuple(shuffled[:n_enroll])
        rest = shuffled[n_enroll:]
        trial_sets[speaker] = [
            tuple(rest[i : i + n_trial])
            for i in range(0, len(rest) - n_trial + 1, n_trial)
        ]

    trials: list[Trial] = []
    for speaker in eligible:
        for utts in trial_sets[speaker]:
            trials.append(Trial(speaker, enroll_sets[speaker], utts, True))
    for speaker in eligible:
        pool = [
            (other, utts)
            for other in eligible
            if other != speaker
            for utts in trial_sets[other]
        ]
        n_take = min(max_nontarget_per_speaker, len(pool))
        if n_take == 0:
            continue
        picks = rng.choice(len(pool), size=n_take, replace=False)
        for p in sorted(int(i) for i in picks):
            trials.append(Trial(speaker, enroll_sets[speaker], pool[p][1], False))

    flags = [t.is_target for t in trials]
    if not any(flags) or all(flags):
        raise DegenerateScoreSetError("trial list needs both target and nontarget trials")
    return TrialList(tuple(trials), n_enroll, n_trial, seed, tuple(skipped))


def score_trials(
    corpus: Corpus,
    trials: TrialList,
    vector_of: Callable[[list[AlignedUtterance]], V],
    compare: Callable[[V, V], float],
    polarity: Polarity,
    model: str,
) -> ScoreSet:
    """Score every trial by comparing the vectors of its two utterance sets.

    ``vector_of`` runs once per distinct utterance-id set, in order of
    first use; enrollment sets recur across their nontarget trials.
    """
    cache: dict[tuple[str, ...], V] = {}

    def vector_for(utt_ids: tuple[str, ...]) -> V:
        if utt_ids not in cache:
            cache[utt_ids] = vector_of([corpus.utterance(u) for u in utt_ids])
        return cache[utt_ids]

    scores = [
        compare(vector_for(t.enroll_utts), vector_for(t.trial_utts)) for t in trials.trials
    ]
    return ScoreSet(
        np.array(scores, dtype=np.float64),
        np.array([t.is_target for t in trials.trials], dtype=bool),
        polarity,
        tuple(",".join(t.enroll_utts) for t in trials.trials),
        tuple(",".join(t.trial_utts) for t in trials.trials),
        trials.n_enroll,
        trials.n_trial,
        model,
    )


def _oriented(scores: ScoreSet) -> np.ndarray:
    """Normalize scores so that larger always means more similar."""
    s = np.asarray(scores.scores, dtype=np.float64)
    return -s if scores.polarity == "smaller-is-similar" else s


def compute_eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold from a labelled score set.

    Sweeps acceptance thresholds over the observed score values
    (accept when score >= threshold, after polarity normalization) and
    linearly interpolates between the two adjacent operating points where
    the false-acceptance and false-rejection curves cross. The returned
    threshold lives on the polarity-normalized scale.
    """
    s = _oriented(scores)
    labels = np.asarray(scores.labels, dtype=bool)
    tar = np.sort(s[labels])
    non = np.sort(s[~labels])
    if tar.size == 0 or non.size == 0:
        raise DegenerateScoreSetError("need at least one target and one nontarget")

    # candidate thresholds: every score, plus one past the maximum
    cand = np.unique(np.concatenate([tar, non]))
    cand = np.append(cand, cand[-1] + 1.0)
    # accept iff score >= t
    far = 1.0 - np.searchsorted(non, cand, side="left") / non.size
    frr = np.searchsorted(tar, cand, side="left") / tar.size

    diff = far - frr  # non-increasing in t
    exact = np.flatnonzero(diff == 0.0)
    if exact.size:
        i = int(exact[0])  # first crossing = lowest FRR on ties
        return float(far[i]), float(cand[i])
    i = int(np.flatnonzero(diff < 0.0)[0])  # first sign change
    a1, a2 = far[i - 1], far[i]
    r1, r2 = frr[i - 1], frr[i]
    lam = (a1 - r1) / ((a1 - r1) - (a2 - r2))
    eer = a1 + lam * (a2 - a1)
    threshold = cand[i - 1] + lam * (cand[i] - cand[i - 1])
    return float(eer), float(threshold)


def eer_confidence_interval(
    eer: float, n_trials: int, confidence: float = 0.95
) -> float:
    """Halfwidth of the binomial normal-approximation interval."""
    if not 0.0 <= eer <= 1.0:
        raise ValueError("eer must lie in [0, 1]")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return z * float(np.sqrt(eer * (1.0 - eer) / n_trials))


def evaluate(cells: Iterable[tuple[str, str, ScoreSet]]) -> EerTable:
    """Score a collection of (condition, model, scores) into a table."""
    out: list[EerCell] = []
    for condition, model, scores in cells:
        eer, threshold = compute_eer(scores)
        n = int(scores.scores.size)
        out.append(
            EerCell(
                condition=condition,
                model=model,
                n_enroll=scores.n_enroll or 0,
                n_trial=scores.n_trial or 0,
                eer=eer,
                threshold=threshold,
                ci_halfwidth=eer_confidence_interval(eer, n),
                n_trials=n,
            )
        )
    return EerTable(tuple(out))


def write_trials(trial_list: TrialList, sink: IO[str]) -> None:
    sink.write(
        f"# trials n_enroll={trial_list.n_enroll} n_trial={trial_list.n_trial} "
        f"seed={trial_list.seed} skipped={len(trial_list.skipped_speakers)}\n"
    )
    for t in trial_list.trials:
        kind = "target" if t.is_target else "nontarget"
        sink.write(
            f"{t.enroll_speaker} {','.join(t.enroll_utts)} "
            f"{','.join(t.trial_utts)} {kind}\n"
        )


def _read_records(
    source: IO[str] | Iterable[str], header_fields: dict[str, Callable[[str], object]]
) -> tuple[dict[str, object], list[tuple[int, list[str]]]]:
    """Header values and 4-field records of a trial or score file.

    Blank lines are skipped. A ``#`` line contributes its ``key=value``
    tokens whose key is in ``header_fields``, converted by that entry's
    function; other tokens are ignored. Every other line must hold four
    fields, the last being ``target`` or ``nontarget``. Records come back
    with their 1-based line numbers.
    """
    header: dict[str, object] = {}
    records: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, eq, value = token.partition("=")
                if eq and key in header_fields:
                    try:
                        header[key] = header_fields[key](value)
                    except ValueError:
                        raise MalformedLineError(
                            f"bad header value {key}={value!r}", lineno
                        ) from None
            continue
        fields = line.split()
        if len(fields) != 4 or fields[3] not in ("target", "nontarget"):
            raise MalformedLineError("need 4 fields, the last target|nontarget", lineno)
        records.append((lineno, fields))
    return header, records


def read_trials(source: IO[str] | Iterable[str]) -> TrialList:
    header, records = _read_records(source, {"n_enroll": int, "n_trial": int, "seed": int})
    if not records:
        raise DegenerateScoreSetError("trial file holds no trials")
    trials = []
    for lineno, f in records:
        try:
            trials.append(
                Trial(f[0], tuple(f[1].split(",")), tuple(f[2].split(",")), f[3] == "target")
            )
        except ValueError as exc:  # the utterance sets overlap
            raise MalformedLineError(str(exc), lineno) from None
    return TrialList(
        tuple(trials), header.get("n_enroll", 0), header.get("n_trial", 0), header.get("seed", 0)
    )


def write_scores(scores: ScoreSet, sink: IO[str]) -> None:
    """Write ``<enroll_id> <trial_id> <score> <target|nontarget>`` lines."""
    if scores.enroll_ids is None or scores.trial_ids is None:
        raise ValueError("score set lacks the trial ids needed for serialization")
    meta = [f"polarity={scores.polarity}"]
    if scores.model is not None:
        meta.append(f"model={scores.model}")
    if scores.n_enroll is not None:
        meta.append(f"n_enroll={scores.n_enroll}")
    if scores.n_trial is not None:
        meta.append(f"n_trial={scores.n_trial}")
    sink.write("# scores " + " ".join(meta) + "\n")
    for enroll_id, trial_id, score, label in zip(
        scores.enroll_ids, scores.trial_ids, scores.scores, scores.labels
    ):
        kind = "target" if label else "nontarget"
        sink.write(f"{enroll_id} {trial_id} {float(score)!r} {kind}\n")


def _polarity(value: str) -> Polarity:
    if value not in get_args(Polarity):
        raise ValueError(value)
    return value  # type: ignore[return-value]


def read_scores(source: IO[str] | Iterable[str]) -> ScoreSet:
    header, records = _read_records(
        source, {"polarity": _polarity, "model": str, "n_enroll": int, "n_trial": int}
    )
    if not records:
        raise DegenerateScoreSetError("score file holds no scores")
    values = []
    for lineno, fields in records:
        try:
            values.append(float(fields[2]))
        except ValueError:
            raise MalformedLineError(f"bad score value {fields[2]!r}", lineno) from None
    return ScoreSet(
        np.array(values),
        np.array([f[3] == "target" for _, f in records], dtype=bool),
        header.get("polarity", "larger-is-similar"),
        tuple(f[0] for _, f in records),
        tuple(f[1] for _, f in records),
        header.get("n_enroll"),
        header.get("n_trial"),
        header.get("model"),
    )
