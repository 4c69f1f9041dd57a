import numpy as np
import pytest

from durasv.alignment import AlignedUtterance, Corpus, PhonemeInventory
from durasv.embeddings import cosine_score, embed, score_trials_embedding
from durasv.errors import EmptyInputError, UnknownUtteranceError, ZeroNormError
from durasv.evaluation import Trial, TrialList
from durasv.model import init_model, tiny_gradcheck_config


def utterance(spk, uid, rng, n_classes=5, length=20):
    phones = [
        (int(rng.integers(0, n_classes)), int(rng.integers(1, 30))) for _ in range(length)
    ]
    return AlignedUtterance(uid, spk, phones)


@pytest.fixture
def params():
    return init_model(tiny_gradcheck_config(), np.random.default_rng(8))


class TestEmbed:
    def test_repeatable(self, params):
        rng = np.random.default_rng(0)
        utts = [utterance("s0", f"u{i}", rng) for i in range(3)]
        a = embed(params, utts)
        b = embed(params, utts)
        assert np.array_equal(a.vector, b.vector)
        assert a.vector.shape == (params.config.embed_dim,)
        assert a.utterance_ids == ("u0", "u1", "u2")

    def test_empty_input(self, params):
        with pytest.raises(EmptyInputError):
            embed(params, [])

    def test_mixed_speakers_rejected(self, params):
        rng = np.random.default_rng(1)
        utts = [utterance("s0", "a", rng), utterance("s1", "b", rng)]
        with pytest.raises(ValueError):
            embed(params, utts)

    def test_order_sensitivity_is_allowed(self, params):
        # the encoder sees context, so permuted input may embed differently;
        # this documents the behavior rather than asserting equality
        rng = np.random.default_rng(2)
        utts = [utterance("s0", f"u{i}", rng) for i in range(4)]
        fwd = embed(params, utts).vector
        rev = embed(params, list(reversed(utts))).vector
        assert fwd.shape == rev.shape
        assert np.all(np.isfinite(fwd)) and np.all(np.isfinite(rev))


class TestCosine:
    def test_identical_is_exactly_one(self):
        v = np.random.default_rng(0).normal(size=16)
        assert cosine_score(v, v) == 1.0
        assert cosine_score(v, v.copy()) == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_opposite_is_minus_one(self):
        v = np.array([0.3, -2.0, 5.0])
        assert cosine_score(v, -v) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            cosine_score(np.zeros(3), np.ones(3))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.normal(size=(2, 8))
            assert -1.0 <= cosine_score(a, b) <= 1.0


class TestScoreTrialsEmbedding:
    def make_corpus(self, rng, n_speakers=3, n_utts=4):
        inv = PhonemeInventory(tuple(f"P{i}" for i in range(5)))
        utts = [
            utterance(f"s{s}", f"s{s}-u{u}", rng)
            for s in range(n_speakers)
            for u in range(n_utts)
        ]
        return Corpus(inv, tuple(utts))

    def test_self_trial_scores_exactly_one(self, params):
        rng = np.random.default_rng(3)
        corpus = self.make_corpus(rng)
        # same utterance set on both sides is impossible through Trial
        # (disjointness), so exercise the cache path with equal content
        utts = corpus.utterances_of("s0")[:2]
        a = embed(params, utts)
        assert cosine_score(a, a) == 1.0

    def test_scores_all_trials(self, params):
        rng = np.random.default_rng(4)
        corpus = self.make_corpus(rng)
        trials = TrialList(
            (
                Trial("s0", ("s0-u0", "s0-u1"), ("s0-u2", "s0-u3"), True),
                Trial("s0", ("s0-u0", "s0-u1"), ("s1-u0", "s1-u1"), False),
            ),
            2,
            2,
            seed=0,
        )
        scores = score_trials_embedding(params, corpus, trials)
        assert scores.polarity == "larger-is-similar"
        assert scores.scores.shape == (2,)
        assert scores.labels.tolist() == [True, False]
        assert np.all(np.abs(scores.scores) <= 1.0)

    def test_unknown_utterance(self, params):
        rng = np.random.default_rng(5)
        corpus = self.make_corpus(rng)
        trials = TrialList((Trial("s0", ("s0-u0",), ("ghost",), True),), 1, 1, 0)
        with pytest.raises(UnknownUtteranceError):
            score_trials_embedding(params, corpus, trials)
