from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv import metric
from durasv.alignment import PhonemeInventory
from durasv.errors import (
    DegenerateScoreSetError,
    NonPositiveComponentError,
    ShapeMismatchError,
    UnknownUtteranceError,
)
from durasv.embeddings import cosine_score
from durasv.evaluation import Trial, TrialList, build_trials, compute_eer
from durasv.features import mean_duration_vector
from durasv.metric import duration_ratio_distance, score_trials_metric
from test_alignment import make_corpus

positive_vectors = st.lists(
    st.floats(min_value=0.1, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


class TestRatioDistance:
    def test_identical_vectors_score_zero_exactly(self):
        v = np.array([3.0, 17.5, 0.25, 88.0])
        assert duration_ratio_distance(v, v) == 0.0

    def test_hand_computed_examples(self):
        assert duration_ratio_distance(
            np.array([10.0, 20.0]), np.array([20.0, 10.0])
        ) == pytest.approx(0.5, abs=1e-15)
        assert duration_ratio_distance(
            np.array([10.0, 20.0]), np.array([10.0, 40.0])
        ) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            duration_ratio_distance(np.ones(3), np.ones(4))

    def test_non_positive_component(self):
        with pytest.raises(NonPositiveComponentError):
            duration_ratio_distance(np.array([1.0, 0.0]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component(self, bad):
        # NaN and inf fail the positivity test on either side; an inf
        # component used to score its class as a ratio of 0
        for a, b in [([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad])]:
            with pytest.raises(NonPositiveComponentError):
                duration_ratio_distance(np.array(a), np.array(b))

    @settings(max_examples=80, deadline=None)
    @given(positive_vectors, st.integers(0, 2**31))
    def test_symmetry_range_and_identity(self, values, seed):
        a = np.array(values)
        rng = np.random.default_rng(seed)
        b = a * np.exp(rng.normal(0, 0.5, size=a.size))
        assert duration_ratio_distance(a, b) == duration_ratio_distance(b, a)
        assert 0.0 <= duration_ratio_distance(a, b) < 1.0
        assert duration_ratio_distance(a, a) == 0.0

    @pytest.mark.parametrize("c", [0.5, 0.9, 2.0])
    def test_uniform_tempo_change_identity(self, c):
        rng = np.random.default_rng(7)
        a = rng.uniform(1.0, 50.0, size=64)
        expected = 1.0 - min(c, 1.0 / c)
        assert duration_ratio_distance(a, c * a) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("score", [duration_ratio_distance, cosine_score])
@pytest.mark.parametrize(
    "a, b",
    [
        (np.ones(3), np.ones(4)),  # lengths that differ
        (np.ones((2, 3)), np.ones((2, 3))),  # two equal 2-D arrays
        (np.ones(()), np.ones(())),  # 0-d arrays
        (np.ones(0), np.ones(0)),  # empty arrays
    ],
    ids=["lengths", "2-d", "0-d", "empty"],
)
def test_per_pair_scores_take_two_vectors_of_one_length(score, a, b):
    # one rule for both attacks' per-pair scores; cosine_score once scored
    # two equal matrices as 1.0 and two empty arrays as a zero norm
    with pytest.raises(ShapeMismatchError, match="1-D vectors of one non-zero length"):
        score(a, b)


def tiny_corpus():
    inv = PhonemeInventory(("P0", "P1"))
    def row(spk, uid, frames):
        return spk, uid, [(i % 2, f) for i, f in enumerate(frames)]
    # speaker "fast" ~ 4 frames, speaker "slow" ~ 20 frames: disjoint regimes
    rows = []
    for k in range(4):
        rows.append(row("fast", f"f{k}", [4, 5, 4, 5]))
        rows.append(row("slow", f"s{k}", [20, 21, 20, 21]))
    return make_corpus(inv, rows)


class TestScoreTrialsMetric:
    def test_self_trial_scores_zero(self):
        corpus = tiny_corpus()
        trials = TrialList(
            (Trial("fast", ("f0", "f1"), ("f2", "f3"), True),), 2, 2, seed=0
        )
        # same utterance multiset on both sides via equal regimes
        scores = score_trials_metric(corpus, trials)
        identical = TrialList(
            (Trial("fast", ("f0",), ("f1",), True),), 1, 1, seed=0
        )
        # f0 and f1 have identical frame sequences, so the vectors match
        assert score_trials_metric(corpus, identical).scores[0] == 0.0
        assert scores.polarity == "smaller-is-similar"

    def test_disjoint_regimes_separate_perfectly(self):
        corpus = tiny_corpus()
        trials = build_trials(corpus, 1, 1, seed=5, max_nontarget_per_speaker=10)
        scores = score_trials_metric(corpus, trials)
        tar = scores.scores[scores.labels]
        non = scores.scores[~scores.labels]
        assert tar.max() < non.min()
        eer, _ = compute_eer(scores)
        assert eer == 0.0

    def test_permuting_trials_permutes_scores(self):
        corpus = tiny_corpus()
        trials = build_trials(corpus, 1, 1, seed=5, max_nontarget_per_speaker=10)
        reversed_list = TrialList(
            tuple(reversed(trials.trials)), trials.n_enroll, trials.n_trial, trials.seed
        )
        a = score_trials_metric(corpus, trials).scores
        b = score_trials_metric(corpus, reversed_list).scores
        assert sorted(a.tolist()) == sorted(b.tolist())

    def test_unknown_utterance(self):
        corpus = tiny_corpus()
        trials = TrialList((Trial("fast", ("f0",), ("missing",), True),), 1, 1, 0)
        with pytest.raises(UnknownUtteranceError):
            score_trials_metric(corpus, trials)

    @pytest.mark.parametrize(
        "trial, said",
        [
            (Trial("fast", ("f0",), ("s0",), True), "f0 s0 says speaker 'fast', target"),
            (Trial("fast", ("f0",), ("f1",), False), "f0 f1 says speaker 'fast', nontarget"),
            (Trial("slow", ("f0",), ("f1",), True), "f0 f1 says speaker 'slow', target"),
            (Trial("NOBODY", ("f0",), ("s1",), False), "f0 s1 says speaker 'NOBODY'"),
        ],
        ids=["cross-speaker-target", "same-speaker-nontarget", "wrong-speaker", "unknown-speaker"],
    )
    def test_trial_that_disagrees_with_the_corpus(self, trial, said):
        good = Trial("slow", ("s2",), ("s3",), True)
        trials = TrialList((good, trial, Trial("slow", ("s2",), ("f3",), True)), 1, 1, 0)
        with pytest.raises(DegenerateScoreSetError, match=f"^trial {said}"):
            score_trials_metric(tiny_corpus(), trials)
        # the id checks of every set come first
        unknown = TrialList((trial, Trial("fast", ("f2",), ("missing",), True)), 1, 1, 0)
        with pytest.raises(UnknownUtteranceError):
            score_trials_metric(tiny_corpus(), unknown)


@st.composite
def corpus_and_sets(draw):
    """A small corpus, two disjoint utterance-id sets of it, and their reorderings.

    The two sets belong to two speakers, ``spk0`` and ``spk1``.
    """
    n_classes = draw(st.integers(1, 5))
    n_utts = draw(st.integers(2, 8))
    ids = draw(st.permutations([f"u{u}" for u in range(n_utts)]))
    cut = draw(st.integers(1, n_utts - 1))
    enroll, trial = tuple(ids[:cut]), tuple(ids[cut:])
    rows = []
    for u in range(n_utts):
        phones = draw(
            st.lists(
                st.tuples(st.integers(0, n_classes - 1), st.integers(1, 200)),
                min_size=1,
                max_size=12,
            )
        )
        rows.append(("spk0" if f"u{u}" in enroll else "spk1", f"u{u}", phones))
    inventory = PhonemeInventory(tuple(f"P{i}" for i in range(n_classes)))
    corpus = make_corpus(inventory, rows)
    return corpus, enroll, trial, tuple(draw(st.permutations(enroll))), tuple(
        draw(st.permutations(trial))
    )


@settings(max_examples=100, deadline=None)
@given(corpus_and_sets())
def test_metric_score_ignores_utterance_order_within_a_set(drawn):
    corpus, enroll, trial, enroll_again, trial_again = drawn
    trials = TrialList(
        (Trial("spk0", enroll, trial, False), Trial("spk0", enroll_again, trial_again, False)),
        len(enroll),
        len(trial),
        seed=0,
    )
    scores = score_trials_metric(corpus, trials).scores
    assert scores[0] == scores[1]


@st.composite
def speaker_corpora(draw):
    """2-4 speakers of 4-6 utterances, frame counts up to 2^31 - 1."""
    n_classes = draw(st.integers(1, 12))
    frames = st.integers(1, 50) | st.integers(1, 2**31 - 1)
    rows = []
    for s in range(draw(st.integers(2, 4))):
        for u in range(draw(st.integers(4, 6))):
            phones = draw(
                st.lists(
                    st.tuples(st.integers(0, n_classes - 1), frames), min_size=1, max_size=30
                )
            )
            rows.append((f"s{s}", f"s{s}-u{u}", phones))
    inventory = PhonemeInventory(tuple(f"P{i}" for i in range(n_classes)))
    return make_corpus(inventory, rows)


@settings(max_examples=100, deadline=None)
@given(speaker_corpora(), st.integers(1, 2), st.integers(0, 2**16), st.integers(1, 64))
def test_batched_scores_equal_per_trial_reference(corpus, n_per_side, seed, chunk_cells):
    trials = build_trials(corpus, n_per_side, n_per_side, seed)
    with patch.object(metric, "_CHUNK_CELLS", chunk_cells):
        scores = score_trials_metric(corpus, trials).scores

    def vector(utt_ids):
        return mean_duration_vector([corpus.utterance(u) for u in utt_ids], corpus.inventory)

    expected = [
        duration_ratio_distance(vector(t.enroll_utts), vector(t.trial_utts)) for t in trials.trials
    ]
    assert scores.tolist() == expected
