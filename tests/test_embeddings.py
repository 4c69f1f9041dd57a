from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv import model as model_module
from durasv.alignment import AlignedUtterance, Corpus, PhonemeInventory
from durasv.embeddings import cosine_score, embed, score_trials_embedding
from durasv.errors import (
    EmptyInputError,
    MixedSpeakerSetError,
    UnknownUtteranceError,
    ZeroNormError,
)
from durasv.evaluation import Trial, TrialList
from durasv.features import sequence_from_utterances
from durasv.model import (
    ModelConfig,
    embed_sequences,
    forward,
    init_model,
    pad_batch,
    tiny_gradcheck_config,
)


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
        assert np.array_equal(a, b)
        assert a.dtype == np.float64 and a.shape == (params.config.embed_dim,)

    def test_empty_input(self, params):
        with pytest.raises(EmptyInputError):
            embed(params, [])

    def test_mixed_speakers_rejected(self, params):
        rng = np.random.default_rng(1)
        utts = [utterance("s0", "a", rng), utterance("s1", "b", rng)]
        with pytest.raises(MixedSpeakerSetError, match="a,b mixes speakers"):
            embed(params, utts)

    def test_order_sensitivity_is_allowed(self, params):
        # the encoder sees context, so permuted input may embed differently;
        # this documents the behavior rather than asserting equality
        rng = np.random.default_rng(2)
        utts = [utterance("s0", f"u{i}", rng) for i in range(4)]
        fwd = embed(params, utts)
        rev = embed(params, list(reversed(utts)))
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

    def test_sides_that_embed_identically_score_exactly_one(self, params):
        rng = np.random.default_rng(6)
        twin = utterance("s0", "a", rng)
        corpus = Corpus(
            PhonemeInventory(tuple(f"P{i}" for i in range(5))),
            (twin, AlignedUtterance("b", "s0", twin.phones.copy())),
        )
        trials = TrialList((Trial("s0", ("a",), ("b",), True),), 1, 1, 0)
        v = embed(params, [twin])
        # the rule, not the arithmetic, gives 1.0 here
        assert np.dot(v, v) / (np.linalg.norm(v) * np.linalg.norm(v)) != 1.0
        assert score_trials_embedding(params, corpus, trials).scores.tolist() == [1.0]

    def test_zero_norm_embedding_rejected(self, params, monkeypatch):
        monkeypatch.setitem(params.tensors, "emb_w", np.zeros_like(params.tensors["emb_w"]))
        corpus = self.make_corpus(np.random.default_rng(7))
        trials = TrialList((Trial("s0", ("s0-u0",), ("s1-u0",), False),), 1, 1, 0)
        with pytest.raises(ZeroNormError):
            score_trials_embedding(params, corpus, trials)

    def test_unknown_utterance(self, params):
        rng = np.random.default_rng(5)
        corpus = self.make_corpus(rng)
        trials = TrialList((Trial("s0", ("s0-u0",), ("ghost",), True),), 1, 1, 0)
        with pytest.raises(UnknownUtteranceError):
            score_trials_embedding(params, corpus, trials)


class TestGroupedScoring:
    """Grouped scoring gives every set its batch-1 forward's bits."""

    CONFIGS = {
        "tiny": tiny_gradcheck_config(),
        # a residual projection in the first block, kernel widths 3 and 1
        "residual-k3": ModelConfig(
            n_classes=5, n_speakers=3, proj_dim=5, encoder_channels=6,
            dilations=(1, 4), embed_dim=4, attention_hidden=3,
        ),
        "residual-k1": ModelConfig(
            n_classes=5, n_speakers=3, proj_dim=5, encoder_channels=6,
            dilations=(1, 2), kernel_width=1, embed_dim=4, attention_hidden=3,
        ),
    }

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_batch_1_forward_and_cosine_score(self, data):
        cfg = self.CONFIGS[data.draw(st.sampled_from(sorted(self.CONFIGS)))]
        sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
        sizes.insert(data.draw(st.integers(0, len(sizes))), 1)
        bound = data.draw(st.integers(1, sum(sizes)), label="group bound")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = init_model(cfg, rng)
        for v in params.tensors.values():
            v += 0.05 * rng.standard_normal(v.shape)
        # one utterance per set; set i faces set i + 1, so first use
        # keeps the drawn order
        utts = [
            utterance(f"s{i}", f"u{i}", rng, cfg.n_classes, n) for i, n in enumerate(sizes)
        ]
        inventory = PhonemeInventory(tuple(f"P{i}" for i in range(cfg.n_classes)))
        pairs = [(i, (i + 1) % len(utts)) for i in range(len(utts))]
        trials = TrialList(
            tuple(Trial(f"s{i}", (f"u{i}",), (f"u{j}",), False) for i, j in pairs), 1, 1, 0
        )
        seqs = [sequence_from_utterances([u], cfg.n_classes) for u in utts]
        alone = np.stack([forward(params, pad_batch([s]))[0][0] for s in seqs])

        with mock.patch.object(model_module, "_GROUP_PHONES", bound):
            assert np.array_equal(embed_sequences(params, seqs), alone)
            scores = score_trials_embedding(params, Corpus(inventory, tuple(utts)), trials)
        want = [cosine_score(alone[i], alone[j]) for i, j in pairs]
        assert np.array_equal(scores.scores, want)
