"""Behavioral checks that need a (small) trained model."""

import numpy as np
import pytest

from durasv.embeddings import cosine_score
from durasv.features import sequence_from_utterances
from durasv.model import ModelConfig, embed_sequences
from durasv.synth import SynthConfig, generate_corpus, sample_speakers
from durasv.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(
        n_speakers=8,
        utts_per_speaker=30,
        phones_per_utt=(15, 35),
        population_log_mean=np.full(24, np.log(10.0)),
        sigma_speaker=0.4,
        sigma_token=0.3,
        seed=61,
    )
    profiles = sample_speakers(cfg, np.random.default_rng([61, 0]))
    corpus = generate_corpus(profiles, cfg, np.random.default_rng([61, 1]))
    model_config = ModelConfig(
        n_classes=24, n_speakers=8, proj_dim=16, encoder_channels=16,
        embed_dim=16, attention_hidden=8,
    )
    result = train(corpus, model_config, TrainConfig(epochs=10, batch_size=16, seed=2))
    return corpus, result.params


def test_one_vs_eight_utterance_embeddings_cohere(trained):
    corpus, params = trained
    spk_a, spk_b = corpus.speakers[0], corpus.speakers[1]
    sets = [
        corpus.utterances_of(spk_a)[:1],
        corpus.utterances_of(spk_a)[1:9],
        corpus.utterances_of(spk_b)[:8],
    ]
    a_single, a_eight, b_eight = embed_sequences(
        params, [sequence_from_utterances(utts, 24) for utts in sets]
    )
    for vec in (a_single, a_eight, b_eight):
        assert vec.shape == (16,)
        assert np.all(np.isfinite(vec))
    same = cosine_score(a_single, a_eight)
    cross = cosine_score(a_single, b_eight)
    assert same > cross


def test_training_reduced_loss(trained):
    _, params = trained
    assert all(np.isfinite(t).all() for t in params.tensors.values())
