"""Duration-sequence encoder with hand-derived gradients, float64 numpy.

The network maps a padded batch of sparse duration rows to fixed-size
speaker embeddings and classification logits:

    sparse rows -> linear projection -> dilated temporal convolution
    blocks (tanh, residual) -> masked attentive statistics pooling ->
    linear embedding layer -> linear speaker classifier

Inputs stay in (class index, frame count) form and are materialized only
inside the projection, which is a row select-and-scale. The convolution
blocks run on a packed layout: each item's steps are laid end to end in
one ``(1, L, C)`` array, with zero rows between neighbouring items as
wide as the widest convolution reaches, so padding never reaches a
convolution and no item sees another. The block output is scattered back
to the padded ``(B, T, C)`` grid for pooling, which excludes padded steps;
right-padding therefore never changes an embedding. ``loss_and_grad``
returns the exact gradient of the mean softmax cross-entropy;
``gradient_check`` compares it against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .features import Chunk, DurationFeatureSequence

# keeps the pooled standard deviation differentiable at zero variance
STD_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    n_speakers: int
    proj_dim: int = 128
    encoder_channels: int = 128
    n_blocks: int = 3
    dilations: tuple[int, ...] = (1, 2, 3)
    kernel_width: int = 3
    embed_dim: int = 128
    attention_hidden: int = 64

    def __post_init__(self) -> None:
        dims = (
            self.n_classes,
            self.n_speakers,
            self.proj_dim,
            self.encoder_channels,
            self.n_blocks,
            self.kernel_width,
            self.embed_dim,
            self.attention_hidden,
        )
        if any(d < 1 for d in dims):
            raise ConfigError("all model dimensions must be >= 1")
        if len(self.dilations) != self.n_blocks:
            raise ConfigError("need one dilation per block")
        if any(d < 1 for d in self.dilations):
            raise ConfigError("dilations must be >= 1")
        if self.kernel_width % 2 == 0:
            raise ConfigError("kernel width must be odd for centered padding")
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))

    @property
    def conv_reach(self) -> int:
        """Steps the widest convolution reads on either side of its centre."""
        return max(self.dilations) * (self.kernel_width - 1) // 2


@dataclass
class ModelParams:
    """Named parameter tensors in a fixed declaration order."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.tensors.values())


@dataclass(frozen=True)
class Batch:
    """Right-padded duration rows with a contiguous-prefix mask."""

    class_idx: np.ndarray  # (B, T) int64, 0 at padded steps
    lengths: np.ndarray  # (B, T) float64, 0.0 at padded steps
    mask: np.ndarray  # (B, T) float64 in {0, 1}
    labels: np.ndarray | None = None  # (B,) int64
    # packed layouts already built for this batch, by gap width
    _layouts: dict[int, "PackedLayout"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return int(self.mask.shape[0])

    def packed(self, gap: int) -> "PackedLayout":
        """The batch's packed layout with ``gap`` zero rows between items."""
        layout = self._layouts.get(gap)
        if layout is None:
            layout = self._layouts[gap] = PackedLayout.of(self, gap)
        return layout


@dataclass(frozen=True)
class PackedLayout:
    """Where each batch cell sits when the items are laid end to end.

    Item ``b`` keeps its ``n_b`` real steps, the mask's prefix, on
    consecutive rows; ``gap`` zero rows separate neighbouring items, so a
    convolution that reaches at most ``gap`` steps to either side never
    mixes two items. A ``gap`` of 0 (kernel width 1) packs items edge to
    edge.
    """

    rows: int  # packed length L
    cells: np.ndarray  # (P,) flat index of each real cell in the (B*T) grid
    slots: np.ndarray  # (P,) its packed row
    classes: np.ndarray  # (P,) its phone class
    coef: np.ndarray  # (P, 1) its frame count
    mask: np.ndarray  # (1, L, 1) 1 on real rows, 0 in the gaps

    @classmethod
    def of(cls, batch: Batch, gap: int) -> "PackedLayout":
        b = batch.size
        n = batch.mask.sum(axis=1).astype(np.int64)
        cells = np.flatnonzero(batch.mask)
        slots = np.arange(cells.size) + np.repeat(np.arange(b) * gap, n)
        mask = np.zeros((1, cells.size + gap * (b - 1), 1))
        mask[0, slots] = 1.0
        return cls(
            rows=mask.shape[1],
            cells=cells,
            slots=slots,
            classes=batch.class_idx.reshape(-1)[cells],
            coef=batch.lengths.reshape(-1, 1)[cells],
            mask=mask,
        )

    @cached_property
    def _class_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Packed rows and coefficients sorted by class, each run's class and start."""
        order = np.argsort(self.classes, kind="stable")
        classes = self.classes[order]
        starts = np.flatnonzero(np.concatenate(([True], classes[1:] != classes[:-1])))
        return self.slots[order], self.coef[order], classes[starts], starts

    def class_sums(self, packed: np.ndarray, n_classes: int) -> np.ndarray:
        """Per class, the sum of ``coef`` times the kept cells' packed rows.

        This is the gradient of the projection given the gradient of its
        packed output; one segmented sum over class-sorted rows.
        """
        slots, coef, classes, starts = self._class_runs
        sums = np.zeros((n_classes, packed.shape[-1]))
        sums[classes] = np.add.reduceat(coef * packed[0, slots], starts, axis=0)
        return sums


def pad_batch(
    items: Sequence[DurationFeatureSequence | Chunk],
    labels: Sequence[int] | None = None,
) -> Batch:
    """Right-pad variable-length sequences into one batch."""
    rows = [it.rows if isinstance(it, Chunk) else it for it in items]
    if not rows or any(len(r) == 0 for r in rows):
        raise ShapeMismatchError("every batch item needs at least one phone")
    b = len(rows)
    t = max(len(r) for r in rows)
    class_idx = np.zeros((b, t), dtype=np.int64)
    lengths = np.zeros((b, t))
    mask = np.zeros((b, t))
    for i, r in enumerate(rows):
        k = len(r)
        class_idx[i, :k] = r.class_indices
        lengths[i, :k] = r.lengths
        mask[i, :k] = 1.0
    lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    if lab is not None and lab.shape != (b,):
        raise ShapeMismatchError("labels must be one integer per batch item")
    return Batch(class_idx, lengths, mask, lab)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in declaration order."""
    n, dp = config.n_classes, config.proj_dim
    c, a = config.encoder_channels, config.attention_hidden
    e, s = config.embed_dim, config.n_speakers
    k = config.kernel_width

    shapes: dict[str, tuple[int, ...]] = {"proj": (n, dp)}
    c_in = dp
    for i in range(config.n_blocks):
        shapes[f"block{i}_w"] = (k, c_in, c)
        shapes[f"block{i}_b"] = (c,)
        if c_in != c:
            shapes[f"block{i}_res"] = (c_in, c)
        c_in = c
    shapes["att_w"] = (c, a)
    shapes["att_b"] = (a,)
    shapes["att_v"] = (a,)
    shapes["att_v0"] = ()
    shapes["emb_w"] = (2 * c, e)
    shapes["emb_b"] = (e,)
    shapes["cls_w"] = (e, s)
    shapes["cls_b"] = (s,)
    return shapes


def init_model(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Zero-mean normal weights scaled by fan-in; biases start at zero.

    The fan-in of a weight is the product of its input axes: every axis
    but the last, or the only axis of ``att_v``, which maps to a scalar.
    """
    tensors: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("_b") or name == "att_v0":
            tensors[name] = np.zeros(shape)
        else:
            fan_in = math.prod(shape[:-1]) if len(shape) > 1 else shape[0]
            tensors[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
    return ModelParams(config, tensors)


def _pad_time(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` with ``pad`` zero steps on either side; cheaper per call than np.pad."""
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad, x.shape[2]))
    xp[:, pad : pad + x.shape[1]] = x
    return xp


def _conv_same(x: np.ndarray, w: np.ndarray, dilation: int) -> np.ndarray:
    """Dilated 1-d convolution with centered zero padding, (B,T,Cin)->(B,T,Cout)."""
    k = w.shape[0]
    pad = dilation * (k - 1) // 2
    t = x.shape[1]
    xp = _pad_time(x, pad)
    out = np.zeros((x.shape[0], t, w.shape[2]))
    for j in range(k):
        out += xp[:, j * dilation : j * dilation + t, :] @ w[j]
    return out


def _conv_same_backward(
    x: np.ndarray, w: np.ndarray, dilation: int, dz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``_conv_same`` w.r.t. the kernel and the input."""
    k = w.shape[0]
    pad = dilation * (k - 1) // 2
    t = x.shape[1]
    xp = _pad_time(x, pad)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        seg = xp[:, j * dilation : j * dilation + t, :]
        dw[j] = np.tensordot(seg, dz, axes=([0, 1], [0, 1]))
        dxp[:, j * dilation : j * dilation + t, :] += dz @ w[j].T
    return dw, dxp[:, pad : pad + t, :]


@dataclass
class ForwardCache:
    """Intermediates needed for the backward pass (and for inspection).

    The block fields hold the packed ``(1, L, C)`` arrays the convolution
    blocks ran on (see ``layout``); padding never reaches a convolution.
    Every field from ``encoded`` on is on the padded ``(B, T)`` grid, and
    ``encoded`` is 0 at padded steps.
    """

    batch: Batch
    layout: PackedLayout
    block_inputs: list[np.ndarray] = field(default_factory=list)  # masked, packed
    block_acts: list[np.ndarray] = field(default_factory=list)  # tanh outputs, packed
    encoded: np.ndarray | None = None  # (B,T,C) last block output
    att_hidden: np.ndarray | None = None  # (B,T,A) tanh of attention layer
    attention: np.ndarray | None = None  # (B,T) pooling weights, rows sum to 1
    mean: np.ndarray | None = None
    centered: np.ndarray | None = None
    std: np.ndarray | None = None
    pooled: np.ndarray | None = None
    embeddings: np.ndarray | None = None
    logits: np.ndarray | None = None


def _validate_batch(config: ModelConfig, batch: Batch) -> None:
    if batch.class_idx.shape != batch.mask.shape or batch.lengths.shape != batch.mask.shape:
        raise ShapeMismatchError("batch arrays disagree in shape")
    if batch.class_idx.size == 0:
        raise ShapeMismatchError("empty batch")
    if int(batch.class_idx.max()) >= config.n_classes or int(batch.class_idx.min()) < 0:
        raise ShapeMismatchError("class index outside the configured inventory")
    if np.any(batch.mask.sum(axis=1) < 1):
        raise ShapeMismatchError("every batch item needs at least one real phone")
    if batch.labels is not None and (
        int(batch.labels.max()) >= config.n_speakers or int(batch.labels.min()) < 0
    ):
        raise ShapeMismatchError("speaker label outside the configured range")


def forward_with_cache(params: ModelParams, batch: Batch) -> ForwardCache:
    cfg = params.config
    _validate_batch(cfg, batch)
    tensors = params.tensors
    m = batch.mask
    layout = batch.packed(cfg.conv_reach)
    m3 = layout.mask

    cache = ForwardCache(batch, layout)
    h = np.zeros((1, layout.rows, cfg.proj_dim))
    h[0, layout.slots] = layout.coef * tensors["proj"][layout.classes]
    c = cfg.encoder_channels
    for i in range(cfg.n_blocks):
        xm = h * m3
        z = _conv_same(xm, tensors[f"block{i}_w"], cfg.dilations[i])
        z += tensors[f"block{i}_b"]
        act = np.tanh(z)
        res = xm if xm.shape[2] == c else xm @ tensors[f"block{i}_res"]
        h = act + res
        cache.block_inputs.append(xm)
        cache.block_acts.append(act)
    b, t = m.shape
    encoded = np.zeros((b * t, c))
    encoded[layout.cells] = h[0, layout.slots]
    h = cache.encoded = encoded.reshape(b, t, c)

    s1 = h @ tensors["att_w"] + tensors["att_b"]
    u = np.tanh(s1)
    e = u @ tensors["att_v"] + tensors["att_v0"]
    e_max = np.max(np.where(m > 0, e, -np.inf), axis=1, keepdims=True)
    w = np.exp(e - e_max) * m
    alpha = w / w.sum(axis=1, keepdims=True)

    mu = np.einsum("bt,btc->bc", alpha, h)
    cen = h - mu[:, None, :]
    var = np.einsum("bt,btc->bc", alpha, cen * cen)
    std = np.sqrt(var + STD_EPS)
    pooled = np.concatenate([mu, std], axis=1)

    emb = pooled @ tensors["emb_w"] + tensors["emb_b"]
    logits = emb @ tensors["cls_w"] + tensors["cls_b"]

    cache.att_hidden = u
    cache.attention = alpha
    cache.mean = mu
    cache.centered = cen
    cache.std = std
    cache.pooled = pooled
    cache.embeddings = emb
    cache.logits = logits
    return cache


def forward(params: ModelParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings (B, embed_dim) and speaker logits (B, n_speakers)."""
    cache = forward_with_cache(params, batch)
    return cache.embeddings, cache.logits


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -float(logp[np.arange(b), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def loss_value(params: ModelParams, batch: Batch) -> float:
    """Cross-entropy loss only; used by the finite-difference check."""
    if batch.labels is None:
        raise ShapeMismatchError("loss needs speaker labels")
    cache = forward_with_cache(params, batch)
    loss, _ = _cross_entropy(cache.logits, batch.labels)
    return loss


def loss_and_grad(
    params: ModelParams, batch: Batch
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its exact parameter gradient."""
    if batch.labels is None:
        raise ShapeMismatchError("loss needs speaker labels")
    cfg = params.config
    tensors = params.tensors
    cache = forward_with_cache(params, batch)
    layout = cache.layout
    m3 = layout.mask

    loss, dlogits = _cross_entropy(cache.logits, batch.labels)
    grads: dict[str, np.ndarray] = {}

    grads["cls_w"] = cache.embeddings.T @ dlogits
    grads["cls_b"] = dlogits.sum(axis=0)
    demb = dlogits @ tensors["cls_w"].T

    grads["emb_w"] = cache.pooled.T @ demb
    grads["emb_b"] = demb.sum(axis=0)
    dpooled = demb @ tensors["emb_w"].T

    c = cfg.encoder_channels
    alpha, h = cache.attention, cache.encoded
    cen, std = cache.centered, cache.std
    dmu = dpooled[:, :c]
    dvar = dpooled[:, c:] * 0.5 / std

    # variance path; the direct mean term vanishes since sum_t alpha*cen == 0
    dalpha = np.einsum("btc,bc->bt", cen * cen, dvar)
    dh = 2.0 * alpha[:, :, None] * cen * dvar[:, None, :]
    # mean path
    dalpha += np.einsum("btc,bc->bt", h, dmu)
    dh += alpha[:, :, None] * dmu[:, None, :]

    # masked softmax over time; padded steps have alpha == 0, so de == 0 there
    de = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))

    u = cache.att_hidden
    grads["att_v"] = np.einsum("bta,bt->a", u, de)
    grads["att_v0"] = np.asarray(de.sum())
    ds1 = de[:, :, None] * tensors["att_v"] * (1.0 - u * u)
    grads["att_w"] = h.reshape(-1, c).T @ ds1.reshape(-1, cfg.attention_hidden)
    grads["att_b"] = ds1.sum(axis=(0, 1))
    dh += ds1 @ tensors["att_w"].T

    # padded steps get no gradient: alpha, and with it de and ds1, is 0 there
    dh_packed = np.zeros((1, layout.rows, c))
    dh_packed[0, layout.slots] = dh.reshape(-1, c)[layout.cells]
    dh = dh_packed
    for i in reversed(range(cfg.n_blocks)):
        xm = cache.block_inputs[i]
        act = cache.block_acts[i]
        dz = dh * (1.0 - act * act)
        dw, dxm = _conv_same_backward(xm, tensors[f"block{i}_w"], cfg.dilations[i], dz)
        grads[f"block{i}_w"] = dw
        grads[f"block{i}_b"] = dz.sum(axis=(0, 1))
        if xm.shape[2] == c:
            dxm += dh
        else:
            grads[f"block{i}_res"] = np.tensordot(xm, dh, axes=([0, 1], [0, 1]))
            dxm += dh @ tensors[f"block{i}_res"].T
        dh = dxm * m3

    grads["proj"] = layout.class_sums(dh, cfg.n_classes)

    ordered = {name: grads[name] for name in tensors}
    return loss, ordered


def _pack(tensors: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([v.ravel() for v in tensors.values()])


def _random_batch(
    config: ModelConfig, rng: np.random.Generator, batch_size: int, max_t: int
) -> Batch:
    items = []
    labels = []
    for _ in range(batch_size):
        t = int(rng.integers(3, max_t + 1))
        items.append(
            DurationFeatureSequence(
                rng.integers(0, config.n_classes, size=t),
                rng.integers(1, 30, size=t).astype(np.float64),
                config.n_classes,
            )
        )
        labels.append(int(rng.integers(0, config.n_speakers)))
    return pad_batch(items, labels)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    mean_rel_error: float
    n_draws: int
    n_parameters: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < 1e-4


def gradient_check(
    config: ModelConfig,
    seed: int = 0,
    n_draws: int = 20,
    step: float = 1e-5,
    batch_size: int = 3,
    max_t: int = 12,
    corrupt: bool = False,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Every parameter coordinate is perturbed by ``+-step``. The relative
    error uses a 1e-5 floor in the denominator so coordinates with
    near-zero gradients are judged on absolute error. ``corrupt``
    deliberately biases one gradient tensor; the check must then fail.
    """
    errors: list[float] = []
    n_params = 0
    for draw in range(n_draws):
        rng = np.random.default_rng([seed, draw])
        params = init_model(config, rng)
        # biases start at zero; jitter everything so the check explores
        # a generic point in parameter space
        for v in params.tensors.values():
            v += 0.05 * rng.standard_normal(v.shape)
        batch = _random_batch(config, rng, batch_size, max_t)

        _, grads = loss_and_grad(params, batch)
        if corrupt:
            grads["emb_w"] = grads["emb_w"] + 1.0
        analytic = _pack(grads)
        n_params = analytic.size

        numeric = np.empty_like(analytic)
        pos = 0
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = loss_value(params, batch)
                flat[j] = orig - step
                down = loss_value(params, batch)
                flat[j] = orig
                numeric[pos] = (up - down) / (2.0 * step)
                pos += 1
        rel = np.abs(analytic - numeric) / np.maximum(
            1e-5, np.abs(analytic) + np.abs(numeric)
        )
        errors.append(float(rel.max()))
        errors.append(float(rel.mean()))
    max_err = max(errors[0::2])
    mean_err = float(np.mean(errors[1::2]))
    return GradCheckReport(max_err, mean_err, n_draws, n_params)


def tiny_gradcheck_config(n_speakers: int = 3) -> ModelConfig:
    """Small configuration sized for exhaustive finite-difference checks."""
    return ModelConfig(
        n_classes=5,
        n_speakers=n_speakers,
        proj_dim=4,
        encoder_channels=4,
        n_blocks=3,
        dilations=(1, 2, 3),
        kernel_width=3,
        embed_dim=4,
        attention_hidden=4,
    )


__all__ = [
    "Batch",
    "ForwardCache",
    "GradCheckReport",
    "ModelConfig",
    "ModelParams",
    "forward",
    "forward_with_cache",
    "gradient_check",
    "init_model",
    "loss_and_grad",
    "loss_value",
    "pad_batch",
    "parameter_shapes",
    "tiny_gradcheck_config",
]
