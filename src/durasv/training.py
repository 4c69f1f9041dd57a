"""Chunk-based training loop with adaptive-moment updates.

Every epoch re-draws chunks per speaker from a fresh derived random
stream, shuffles them, and pads mini-batches to their longest chunk. All
randomness descends from the single seed in :class:`TrainConfig`, so two
runs with the same seed produce bit-identical parameters and loss logs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .alignment import Corpus
from .errors import (
    ConfigError,
    InsufficientSpeakersError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .features import make_chunks
from .model import Batch, ModelConfig, ModelParams, init_model, loss_and_grad, pad_batch

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    chunk_min: int = 32
    chunk_max: int = 256

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ConfigError("need epochs >= 0, batch size >= 1 and learning rate > 0")
        if not 1 <= self.chunk_min <= self.chunk_max:
            raise ConfigError("chunk lengths must satisfy 1 <= chunk_min <= chunk_max")


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list[float] = field(default_factory=list)
    speaker_labels: tuple[str, ...] = ()


class AdamState:
    """Per-tensor first/second moment buffers with bias correction."""

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        for name, tensor in params.tensors.items():
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / correct1
            v_hat = self.v[name] / correct2
            tensor -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _epoch_batches(
    corpus: Corpus,
    speakers: list[str],
    hyper: TrainConfig,
    epoch: int,
) -> list[Batch]:
    chunks = []
    labels = []
    for spk_index, speaker in enumerate(speakers):
        rng = np.random.default_rng([hyper.seed, 1, epoch, spk_index])
        for chunk in make_chunks(
            corpus.utterances_of(speaker),
            corpus.inventory,
            rng,
            hyper.chunk_min,
            hyper.chunk_max,
        ):
            chunks.append(chunk)
            labels.append(spk_index)
    order = np.random.default_rng([hyper.seed, 2, epoch]).permutation(len(chunks))
    batches = []
    for start in range(0, len(order), hyper.batch_size):
        picks = order[start : start + hyper.batch_size]
        batches.append(
            pad_batch([chunks[i] for i in picks], [labels[i] for i in picks])
        )
    return batches


def train(corpus: Corpus, config: ModelConfig, hyper: TrainConfig) -> TrainResult:
    """Train a speaker classifier on per-speaker duration chunks.

    Speakers are label-indexed in sorted order. Returns the final
    parameters together with the per-epoch mean loss log. Stops with
    ``TrainingDivergedError`` at the first non-finite loss, before that
    step's update.
    """
    speakers = sorted(corpus.by_speaker)
    if len(speakers) < 2:
        raise InsufficientSpeakersError(
            f"training needs at least 2 speakers, corpus has {len(speakers)}"
        )
    if config.n_speakers != len(speakers):
        raise ShapeMismatchError(
            f"config declares {config.n_speakers} speakers, corpus has {len(speakers)}"
        )
    if config.n_classes != corpus.inventory.size:
        raise ShapeMismatchError(
            f"config declares {config.n_classes} classes, inventory has "
            f"{corpus.inventory.size}"
        )

    params = init_model(config, np.random.default_rng([hyper.seed, 0]))
    optimizer = AdamState(params, hyper.learning_rate)
    result = TrainResult(params, speaker_labels=tuple(speakers))

    for epoch in range(hyper.epochs):
        loss_sum = 0.0
        item_count = 0
        for step, batch in enumerate(_epoch_batches(corpus, speakers, hyper, epoch), 1):
            loss, grads = loss_and_grad(params, batch)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch + 1, step)
            optimizer.step(params, grads)
            loss_sum += loss * batch.size
            item_count += batch.size
        epoch_loss = loss_sum / max(item_count, 1)
        result.epoch_losses.append(epoch_loss)
        logger.info("epoch %d/%d mean loss %.6f", epoch + 1, hyper.epochs, epoch_loss)
    return result
