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
from typing import IO, Callable, Iterable, Literal, get_args

import numpy as np

from .alignment import Corpus, _check_tokens
from .errors import (
    ConfigError,
    DegenerateScoreSetError,
    MalformedLineError,
    MixedSpeakerSetError,
    NoEligibleSpeakersError,
    UnknownUtteranceError,
    integer,
    numbered_lines,
)

logger = logging.getLogger(__name__)

Polarity = Literal["larger-is-similar", "smaller-is-similar"]

CI_CONVENTION = "normal-approximation: z * sqrt(eer*(1-eer)/n), n = total trials"
# z of the two-sided 95% interval that every report gives
_CI_Z = NormalDist().inv_cdf(0.5 + 0.95 / 2.0)


@dataclass(frozen=True)
class Trial:
    """One verification comparison between disjoint utterance sets.

    Each set is a sequence of utterance ids, kept as a tuple; one string
    in its place raises ``ValueError``, as an empty set, an empty or
    repeated id, overlapping sets and an ``is_target`` that is not a
    ``bool`` do.
    """

    enroll_speaker: str
    enroll_utts: tuple[str, ...]
    trial_utts: tuple[str, ...]
    is_target: bool

    def __post_init__(self) -> None:
        # any truthy value would be written and checked as a target trial
        if not isinstance(self.is_target, bool):
            raise ValueError(f"is_target must be a bool, got {self.is_target!r}")
        for name in ("enroll_utts", "trial_utts"):
            utts = getattr(self, name)
            if isinstance(utts, str):
                raise ValueError(f"utterance set {utts!r} is one string, not a sequence of ids")
            object.__setattr__(self, name, tuple(utts))
        enroll, trial = set(self.enroll_utts), set(self.trial_utts)
        for utts, distinct in ((self.enroll_utts, enroll), (self.trial_utts, trial)):
            if not utts:
                raise ValueError("empty utterance set")
            if "" in distinct:
                raise ValueError(f"empty utterance id in set {','.join(utts)!r}")
            if len(distinct) < len(utts):
                raise ValueError(f"utterance set {','.join(utts)!r} repeats an id")
        if enroll & trial:
            raise ValueError("enrollment and trial utterance sets overlap")


@dataclass(frozen=True)
class TrialList:
    """Trials and the values a trial file's header records.

    ``n_enroll`` and ``n_trial`` must be integers of at least 1 and
    ``seed`` one of at least 0, each checked by ``errors.integer``
    (``ConfigError``, a ``ValueError``) and kept as a plain int.
    """

    trials: tuple[Trial, ...]
    n_enroll: int
    n_trial: int
    seed: int
    skipped_speakers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, least in (("n_enroll", 1), ("n_trial", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), least))


@dataclass(frozen=True)
class ScoreSet:
    """Per-trial scores, target labels, and score polarity.

    A polarity that is not one of ``Polarity``'s two values raises
    ``DegenerateScoreSetError``, as a non-finite score does. ``n_enroll``
    and ``n_trial`` may be ``None``; a count given must be an integer of
    at least 1, checked as ``TrialList``'s are.
    """

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
        try:
            _polarity(self.polarity)
        except ValueError:
            raise DegenerateScoreSetError(f"unknown score polarity {self.polarity!r}") from None
        for name in ("n_enroll", "n_trial"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, integer(name, getattr(self, name), 1))


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

    def to_json(self) -> str:
        payload = {"ci_convention": CI_CONVENTION, "cells": [vars(c) for c in self.cells]}
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
    n_enroll, n_trial = integer("n_enroll", n_enroll, 1), integer("n_trial", n_trial, 1)
    seed = integer("seed", seed, 0)
    max_nontarget_per_speaker = integer("max_nontarget_per_speaker", max_nontarget_per_speaker, 0)
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

    # every eligible speaker's trial sets, speaker after speaker; speaker k
    # owns trial_sets[runs[k][0]:runs[k][1]]
    enroll_sets: list[tuple[str, ...]] = []
    trial_sets: list[tuple[str, ...]] = []
    runs: list[tuple[int, int]] = []
    for speaker in eligible:
        utt_ids = [corpus.utterance_ids[i] for i in corpus.by_speaker[speaker]]
        order = rng.permutation(len(utt_ids))
        shuffled = [utt_ids[i] for i in order]
        enroll_sets.append(tuple(shuffled[:n_enroll]))
        rest = shuffled[n_enroll:]
        start = len(trial_sets)
        trial_sets.extend(
            tuple(rest[i : i + n_trial]) for i in range(0, len(rest) - n_trial + 1, n_trial)
        )
        runs.append((start, len(trial_sets)))

    trials: list[Trial] = [
        Trial(speaker, enroll, trial_sets[i], True)
        for speaker, enroll, (start, stop) in zip(eligible, enroll_sets, runs)
        for i in range(start, stop)
    ]
    for speaker, enroll, (start, stop) in zip(eligible, enroll_sets, runs):
        # the pool is every other speaker's trial sets: all of trial_sets
        # but this speaker's run, so a pick at or past the run's start
        # shifts past it
        pool_size = len(trial_sets) - (stop - start)
        n_take = min(max_nontarget_per_speaker, pool_size)
        if n_take == 0:
            continue
        picks = np.sort(rng.choice(pool_size, size=n_take, replace=False))
        picks[picks >= start] += stop - start
        trials.extend(Trial(speaker, enroll, trial_sets[p], False) for p in picks.tolist())

    flags = [t.is_target for t in trials]
    if not any(flags) or all(flags):
        raise DegenerateScoreSetError("trial list needs both target and nontarget trials")
    return TrialList(tuple(trials), n_enroll, n_trial, seed, tuple(skipped))


def score_trials(
    corpus: Corpus,
    trials: TrialList,
    vectors_of: Callable[[list[list[int]]], np.ndarray],
    compare: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    polarity: Polarity,
    model: str,
) -> ScoreSet:
    """Score every trial by comparing the vectors of its two utterance sets.

    The distinct utterance-id sets are collected in order of first use;
    enrollment sets recur across their nontarget trials. An unknown id
    raises ``UnknownUtteranceError`` and a set holding more than one
    speaker's utterances ``MixedSpeakerSetError``, for the first such set.
    Then the first trial, in trial order, whose enrollment speaker is not
    its enrollment set's speaker, or whose label is not whether its two
    sets are one speaker's, raises ``DegenerateScoreSetError``.
    ``vectors_of`` then maps the sets, each a list of the corpus's
    utterance indices in the set's order, to one ``(S, D)`` array, a row
    per set, and ``compare(vectors, a, b)`` gives the ``(n,)`` scores of
    the trials whose sides are rows ``a`` and ``b``.
    """
    rows: dict[tuple[str, ...], int] = {}
    sets: list[list[int]] = []
    set_speakers: list[str] = []
    speaker_of = corpus.speaker_index.tolist()

    def row_of(utt_ids: tuple[str, ...]) -> int:
        if utt_ids not in rows:
            try:
                index = [corpus.by_utterance[u] for u in utt_ids]
            except KeyError as exc:
                raise UnknownUtteranceError(exc.args[0]) from None
            speakers = {speaker_of[i] for i in index}
            if len(speakers) > 1:
                names = sorted(corpus.speakers[s] for s in speakers)
                raise MixedSpeakerSetError(utt_ids, names)
            rows[utt_ids] = len(sets)
            sets.append(index)
            set_speakers.append(corpus.speakers[speaker_of[index[0]]])
        return rows[utt_ids]

    sides = [(row_of(t.enroll_utts), row_of(t.trial_utts)) for t in trials.trials]
    a, b = np.array(sides, dtype=np.intp).reshape(-1, 2).T
    for t, (i, j) in zip(trials.trials, sides):
        enroll, trial = set_speakers[i], set_speakers[j]
        if t.enroll_speaker != enroll or t.is_target != (enroll == trial):
            raise DegenerateScoreSetError(
                f"trial {','.join(t.enroll_utts)} {','.join(t.trial_utts)} says speaker "
                f"{t.enroll_speaker!r}, {'target' if t.is_target else 'nontarget'}; "
                f"the corpus says enrollment speaker {enroll!r}, trial speaker {trial!r}"
            )
    return ScoreSet(
        np.asarray(compare(vectors_of(sets), a, b), dtype=np.float64),
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

    # candidate thresholds: every score, plus one past the maximum, or the
    # next float up where adding 1 rounds back to it (|score| >= 2^53); that
    # is inf past the largest float, and a threshold may overflow, so
    # overflow is let through and a non-finite threshold refused below
    cand = np.unique(np.concatenate([tar, non]))
    with np.errstate(over="ignore"):
        cand = np.append(cand, max(cand[-1] + 1.0, np.nextafter(cand[-1], np.inf)))
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
    with np.errstate(over="ignore"):
        threshold = cand[i - 1] + lam * (cand[i] - cand[i - 1])
    if not np.isfinite(threshold):
        raise DegenerateScoreSetError("EER threshold lies past the largest finite float")
    return float(eer), float(threshold)


def eer_confidence_interval(eer: float, n_trials: int) -> float:
    """Halfwidth of the 95% binomial normal-approximation interval."""
    if not 0.0 <= eer <= 1.0:
        raise ValueError("eer must lie in [0, 1]")
    integer("n_trials", n_trials, 1)
    return _CI_Z * float(np.sqrt(eer * (1.0 - eer) / n_trials))


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
    """Write a trial file that ``read_trials`` reads back as ``trial_list``'s
    trials, ``n_enroll``, ``n_trial`` and ``seed``.

    Of the skipped speakers the header keeps only their count,
    ``skipped=<n>``, so the list read back has no ``skipped_speakers``.
    Its speaker and utterance ids must be ones a corpus holds, and no
    utterance id may hold ``,``, which joins a set's ids; otherwise
    ``ValueError`` is raised before anything is written.
    """
    trials = trial_list.trials
    _check_tokens("speaker id", dict.fromkeys(t.enroll_speaker for t in trials), "#")
    sets = dict.fromkeys(s for t in trials for s in (t.enroll_utts, t.trial_utts))
    _check_tokens("utterance id", dict.fromkeys(u for s in sets for u in s), "#,")
    sink.write(
        f"# trials n_enroll={trial_list.n_enroll} n_trial={trial_list.n_trial} "
        f"seed={trial_list.seed} skipped={len(trial_list.skipped_speakers)}\n"
    )
    for t in trials:
        kind = "target" if t.is_target else "nontarget"
        sink.write(
            f"{t.enroll_speaker} {','.join(t.enroll_utts)} "
            f"{','.join(t.trial_utts)} {kind}\n"
        )


def _read_records(
    source: IO[str] | Iterable[str], header_fields: dict[str, Callable[[str], object]]
) -> tuple[dict[str, object], list[tuple[int, list[str]]]]:
    """Header values and 4-field records of a trial or score file.

    Blank lines are skipped. A ``#`` line before the first record
    contributes its ``key=value`` tokens whose key is in ``header_fields``,
    converted by that entry's function; other tokens are ignored. A key
    given twice, or a value its function refuses with ``ValueError``,
    raises ``MalformedLineError``. A ``#`` line after the first record is
    a comment. Every other line must hold four fields, the last being
    ``target`` or ``nontarget``. Records come back with their 1-based line
    numbers. Lines are cut by ``errors.text_blocks``, which raises
    ``ValueError`` for a source or line it refuses.
    """
    header: dict[str, object] = {}
    records: list[tuple[int, list[str]]] = []
    for lineno, raw in numbered_lines(source):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in () if records else line[1:].split():
                key, eq, value = token.partition("=")
                if eq and key in header:
                    raise MalformedLineError(f"header value {key}= given twice", lineno)
                if eq and key in header_fields:
                    try:
                        header[key] = header_fields[key](value)
                    except ValueError as exc:
                        why = f": {exc}" if isinstance(exc, ConfigError) else ""
                        raise MalformedLineError(
                            f"bad header value {key}={value!r}{why}", lineno
                        ) from None
            continue
        fields = line.split()
        if len(fields) != 4 or fields[3] not in ("target", "nontarget"):
            raise MalformedLineError("need 4 fields, the last target|nontarget", lineno)
        records.append((lineno, fields))
    return header, records


def _at_least(least: int) -> Callable[[str], int]:
    """A header value's converter: a decimal integer, by ``errors.integer``'s rule."""
    return lambda value: integer("value", int(value), least)


def read_trials(source: IO[str] | Iterable[str]) -> TrialList:
    """A trial file: its ``n_enroll=``, ``n_trial=`` and ``seed=`` header and records.

    All three header values are required, the counts at least 1 and the
    seed at least 0, and every record's enrollment and trial sets must hold
    ``n_enroll`` and ``n_trial`` utterance ids.
    """
    header, records = _read_records(
        source, {"n_enroll": _at_least(1), "n_trial": _at_least(1), "seed": _at_least(0)}
    )
    missing = [key for key in ("n_enroll", "n_trial", "seed") if key not in header]
    if missing:
        raise DegenerateScoreSetError(
            f"trial file has no {' '.join(key + '=' for key in missing)} header"
        )
    if not records:
        raise DegenerateScoreSetError("trial file holds no trials")
    n_enroll, n_trial = header["n_enroll"], header["n_trial"]
    trials = []
    for lineno, f in records:
        try:
            t = Trial(f[0], tuple(f[1].split(",")), tuple(f[2].split(",")), f[3] == "target")
        except ValueError as exc:  # an empty or repeated id, or overlapping sets
            raise MalformedLineError(str(exc), lineno) from None
        sizes = (len(t.enroll_utts), len(t.trial_utts))
        if sizes != (n_enroll, n_trial):
            raise MalformedLineError(
                f"sets of {sizes[0]}+{sizes[1]} utterances, header says {n_enroll}+{n_trial}",
                lineno,
            )
        trials.append(t)
    return TrialList(tuple(trials), n_enroll, n_trial, header["seed"])


def write_scores(scores: ScoreSet, sink: IO[str]) -> None:
    """Write ``<enroll_id> <trial_id> <score> <target|nontarget>`` lines.

    Each id, a set's utterance ids joined by ``,``, and the model name must
    be one token a corpus id could be, ``,`` allowed in the ids, so that
    ``read_scores`` reads every record and header value back; otherwise
    ``ValueError`` is raised before anything is written.
    """
    if scores.enroll_ids is None or scores.trial_ids is None:
        raise ValueError("score set lacks the trial ids needed for serialization")
    _check_tokens("enrollment id", dict.fromkeys(scores.enroll_ids), "#")
    _check_tokens("trial id", dict.fromkeys(scores.trial_ids), "#")
    meta = [f"polarity={scores.polarity}"]
    if scores.model is not None:
        _check_tokens("model name", (scores.model,), "#")
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
    """A score file: its ``polarity=`` header, required, the optional
    ``model=`` and ``n_enroll=``/``n_trial=`` (each at least 1), and records."""
    header, records = _read_records(
        source,
        {"polarity": _polarity, "model": str, "n_enroll": _at_least(1), "n_trial": _at_least(1)},
    )
    if "polarity" not in header:
        raise DegenerateScoreSetError("score file has no polarity= header")
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
        header["polarity"],
        tuple(f[0] for _, f in records),
        tuple(f[1] for _, f in records),
        header.get("n_enroll"),
        header.get("n_trial"),
        header.get("model"),
    )
