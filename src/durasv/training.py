"""Training loop over per-speaker duration chunks, with adaptive-moment updates.

Every epoch re-draws chunks per speaker from a fresh derived random
stream, shuffles them, and lays each mini-batch's chunks end to end. All
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
    ConfigError, Count, InsufficientSpeakersError, Natural, Positive, ShapeMismatchError,
    TrainingDivergedError, check_fields,
)
from .features import make_chunks
from .model import Batch, ModelConfig, ModelParams, init_model, loss_and_grad, pad_batch

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: Natural
    batch_size: Count = 32
    learning_rate: Positive = 1e-3
    seed: Natural = 0
    chunk_min: Count = 32
    chunk_max: Count = 256

    def __post_init__(self) -> None:
        check_fields(self)
        if self.chunk_min > self.chunk_max:
            raise ConfigError("chunk lengths must satisfy chunk_min <= chunk_max")


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list[float] = field(default_factory=list)
    speaker_labels: tuple[str, ...] = ()


class AdamState:
    """Per-tensor first/second moment buffers with bias correction.

    ``step`` updates the moments and the parameters in place, through two
    work arrays as large as the largest tensor.
    """

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()
        self._work = np.empty((2, max(v.size for v in params.tensors.values())))

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        for name, tensor in params.tensors.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            a, b = (w[: g.size].reshape(g.shape) for w in self._work)
            # m = b1 * m + (1 - b1) * g
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
            # v = b2 * v + (1 - b2) * g * g
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            # tensor -= lr * m_hat / (sqrt(v_hat) + eps)
            np.multiply(self.lr, np.divide(m, correct1, out=a), out=a)
            np.sqrt(np.divide(v, correct2, out=b), out=b)
            b += ADAM_EPS
            tensor -= np.divide(a, b, out=a)


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
    # the copy leaves the training steps' work buffers (tens of MB) behind
    result.params = params.copy()
    return result
