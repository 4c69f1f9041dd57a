import numpy as np
import pytest

from durasv import training
from durasv.errors import (
    ConfigError,
    InsufficientSpeakersError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from durasv.model import ModelConfig, init_model
from durasv.synth import SynthConfig, generate_corpus, sample_speakers
from durasv.training import TrainConfig, train


def small_corpus(n_speakers=4, utts=8, seed=3, sigma_speaker=0.3):
    cfg = SynthConfig(
        n_speakers=n_speakers,
        utts_per_speaker=utts,
        phones_per_utt=(15, 30),
        population_log_mean=np.full(6, np.log(10.0)),
        sigma_speaker=sigma_speaker,
        sigma_token=0.3,
        seed=seed,
    )
    profiles = sample_speakers(cfg, np.random.default_rng([seed, 0]))
    return generate_corpus(profiles, cfg, np.random.default_rng([seed, 1]))


def small_model_config(corpus):
    return ModelConfig(
        n_classes=corpus.inventory.size,
        n_speakers=len(corpus.by_speaker),
        proj_dim=8,
        encoder_channels=8,
        embed_dim=8,
        attention_hidden=4,
    )


def test_adam_step_equals_the_out_of_place_update():
    cfg = ModelConfig(n_classes=6, n_speakers=3, proj_dim=8, encoder_channels=8,
                      embed_dim=8, attention_hidden=4)
    rng = np.random.default_rng(9)
    params = init_model(cfg, rng)
    want = params.copy()
    optimizer = training.AdamState(params, 1e-3)
    m, v = want.zeros_like(), want.zeros_like()
    b1, b2, eps, lr = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS, 1e-3
    for t in range(1, 6):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.tensors.items()}
        optimizer.step(params, grads)
        for k, tensor in want.tensors.items():
            g = grads[k]
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v[k] / (1.0 - b2**t)
            tensor -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in want.tensors:
            assert np.array_equal(params.tensors[k], want.tensors[k]), k
            assert np.array_equal(optimizer.m[k], m[k]) and np.array_equal(optimizer.v[k], v[k]), k


def test_zero_epochs_returns_init_params():
    corpus = small_corpus()
    config = small_model_config(corpus)
    hyper = TrainConfig(epochs=0, seed=12)
    result = train(corpus, config, hyper)
    reference = init_model(config, np.random.default_rng([12, 0]))
    assert result.epoch_losses == []
    for name in reference.tensors:
        assert np.array_equal(result.params.tensors[name], reference.tensors[name])


def test_fixed_seed_reproduces_training_log():
    corpus = small_corpus()
    config = small_model_config(corpus)
    hyper = TrainConfig(epochs=3, batch_size=8, seed=7)
    a = train(corpus, config, hyper)
    b = train(corpus, config, hyper)
    assert a.epoch_losses == b.epoch_losses
    for name in a.params.tensors:
        assert np.array_equal(a.params.tensors[name], b.params.tensors[name])


def test_loss_decreases_on_separable_corpus():
    corpus = small_corpus(n_speakers=4, utts=10, sigma_speaker=0.5)
    config = small_model_config(corpus)
    result = train(corpus, config, TrainConfig(epochs=12, batch_size=8, seed=1))
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    assert all(np.isfinite(t).all() for t in result.params.tensors.values())


@pytest.mark.parametrize(
    "changes",
    [{"epochs": 1.5}, {"batch_size": "8"}, {"learning_rate": float("nan")}],
    ids=["float-epochs", "string-batch-size", "nan-learning-rate"],
)
def test_non_integer_counts_and_non_finite_rates_rejected(changes):
    with pytest.raises(ConfigError, match="must be an integer|must be a finite number"):
        TrainConfig(**{"epochs": 1, **changes})


def test_single_speaker_rejected():
    corpus = small_corpus(n_speakers=1)
    config = ModelConfig(
        n_classes=corpus.inventory.size, n_speakers=1,
        proj_dim=8, encoder_channels=8, embed_dim=8, attention_hidden=4,
    )
    with pytest.raises(InsufficientSpeakersError):
        train(corpus, config, TrainConfig(epochs=1))


def test_speaker_count_mismatch_rejected():
    corpus = small_corpus(n_speakers=4)
    config = ModelConfig(
        n_classes=corpus.inventory.size, n_speakers=9,
        proj_dim=8, encoder_channels=8, embed_dim=8, attention_hidden=4,
    )
    with pytest.raises(ShapeMismatchError):
        train(corpus, config, TrainConfig(epochs=1))


def test_speaker_labels_are_sorted():
    corpus = small_corpus(n_speakers=3)
    config = small_model_config(corpus)
    result = train(corpus, config, TrainConfig(epochs=0))
    assert result.speaker_labels == tuple(sorted(corpus.by_speaker))



def test_non_finite_loss_stops_training(monkeypatch):
    # the loss turns NaN at epoch 2, step 1 (both 1-based)
    position = {"epoch": 0, "step": 0}
    real_batches, real_loss = training._epoch_batches, training.loss_and_grad

    def epoch_batches(corpus, speakers, hyper, epoch):
        position.update(epoch=epoch + 1, step=0)
        return real_batches(corpus, speakers, hyper, epoch)

    def loss_and_grad(params, batch):
        position["step"] += 1
        loss, grads = real_loss(params, batch)
        return (float("nan") if (position["epoch"], position["step"]) == (2, 1) else loss), grads

    monkeypatch.setattr(training, "_epoch_batches", epoch_batches)
    monkeypatch.setattr(training, "loss_and_grad", loss_and_grad)
    corpus = small_corpus()
    with pytest.raises(TrainingDivergedError, match="epoch 2, step 1") as info:
        train(corpus, small_model_config(corpus), TrainConfig(epochs=3, batch_size=8))
    assert (info.value.epoch, info.value.step) == (2, 1)
