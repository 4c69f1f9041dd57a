import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import AlignedUtterance, Corpus, PhonemeInventory
from durasv.errors import (
    DimensionMismatchError,
    NonPositiveComponentError,
    UnknownUtteranceError,
)
from durasv.evaluation import Trial, TrialList, build_trials, compute_eer
from durasv.metric import duration_ratio_distance, score_trials_metric

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
        with pytest.raises(DimensionMismatchError):
            duration_ratio_distance(np.ones(3), np.ones(4))

    def test_non_positive_component(self):
        with pytest.raises(NonPositiveComponentError):
            duration_ratio_distance(np.array([1.0, 0.0]), np.ones(2))

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


def tiny_corpus():
    inv = PhonemeInventory(("P0", "P1"))
    def utt(spk, uid, frames):
        phones = [(i % 2, f) for i, f in enumerate(frames)]
        return AlignedUtterance(uid, spk, phones)
    # speaker "fast" ~ 4 frames, speaker "slow" ~ 20 frames: disjoint regimes
    utts = []
    for k in range(4):
        utts.append(utt("fast", f"f{k}", [4, 5, 4, 5]))
        utts.append(utt("slow", f"s{k}", [20, 21, 20, 21]))
    return Corpus(inv, tuple(utts))


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


@st.composite
def corpus_and_sets(draw):
    """A small corpus, two disjoint utterance-id sets of it, and their reorderings."""
    n_classes = draw(st.integers(1, 5))
    n_utts = draw(st.integers(2, 8))
    utts = []
    for u in range(n_utts):
        phones = draw(
            st.lists(
                st.tuples(st.integers(0, n_classes - 1), st.integers(1, 200)),
                min_size=1,
                max_size=12,
            )
        )
        utts.append(AlignedUtterance(f"u{u}", f"spk{u % 2}", phones))
    corpus = Corpus(PhonemeInventory(tuple(f"P{i}" for i in range(n_classes))), tuple(utts))
    ids = draw(st.permutations([u.utterance_id for u in utts]))
    cut = draw(st.integers(1, n_utts - 1))
    enroll, trial = tuple(ids[:cut]), tuple(ids[cut:])
    return corpus, enroll, trial, tuple(draw(st.permutations(enroll))), tuple(
        draw(st.permutations(trial))
    )


@settings(max_examples=100, deadline=None)
@given(corpus_and_sets())
def test_metric_score_ignores_utterance_order_within_a_set(drawn):
    corpus, enroll, trial, enroll_again, trial_again = drawn
    trials = TrialList(
        (Trial("spk0", enroll, trial, True), Trial("spk0", enroll_again, trial_again, False)),
        len(enroll),
        len(trial),
        seed=0,
    )
    scores = score_trials_metric(corpus, trials).scores
    assert scores[0] == scores[1]
