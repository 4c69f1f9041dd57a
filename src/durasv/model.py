"""Duration-sequence encoder with hand-derived gradients, float64 numpy.

The network maps a batch of sparse duration rows, its items laid end to
end, to fixed-size speaker embeddings and classification logits:

    sparse rows -> linear projection -> dilated temporal convolution
    blocks (tanh, residual) -> attentive statistics pooling ->
    linear embedding layer -> linear speaker classifier

Inputs stay in (class index, frame count) form and are materialized only
inside the projection, which is a row select-and-scale. A ``Batch``
holds only the ``P`` real steps in item order and each item's offset;
no padding reaches the model, and the right-padded ``(B, T)`` grid is a
view built on request. The convolutions run on one packed ``(L, C)``
array of the real steps, with zero rows between neighbouring items as
wide as the widest convolution reaches, so no convolution sees another
item. Pooling reads the real rows alone, ``(P, C)`` in item order, with
per-item softmax and sums over each item's run of rows, so an item's
embedding does not depend on the other items of its batch.

``loss_and_grad`` returns the exact gradient of the mean softmax
cross-entropy. Its head, ``_cross_entropy``, gives the loss, the
classifier's gradients and the gradient w.r.t. the embeddings;
``_encoder_backward`` takes that gradient from the embedding layer down
to ``proj``. A new loss on the encoder is a new head, and the encoder
backward serves it as it is. ``gradient_check`` compares the gradient
against central finite differences.

A perturbed parameter leaves every stage before the first that reads it
as it was, so each of ``gradient_check``'s perturbed passes starts at
that stage and reads the earlier stages' outputs from the buffers of a
clean pass: block ``i``'s padded input ``x{i}`` for ``block{i}_*``, the
encoder output ``enc`` for ``att_w`` and ``att_b``, and ``enc`` with the
attention hidden layer ``att`` for the pooling and head tensors. Every
loss, and so the report, is the one a full pass gives, to the bit.

The forward pass runs in two stages: the encoder stage (projection,
convolution blocks and the attention hidden layer, on the packed layout)
and the pooling stage (attention scores, per-item softmax, weighted mean
and std, embedding layer). Training runs both on the whole batch.
``embed_sequences`` runs the encoder stage once per group of sequences
and the pooling stage per sequence, so every embedding equals the one a
batch-1 ``forward`` gives, to the bit.

A ``Batch``'s arrays stay writable after it is built, so nothing about
them is cached: every pass checks the batch's current classes, frames
and labels and builds the packed layout it runs on.

Every large intermediate is a 2-D ``(rows, C)`` array in a named work
buffer, written in place. ``loss_and_grad`` and ``forward`` run on the
buffers the params object owns, so successive training steps reuse one
set of memory instead of allocating and faulting in fresh arrays; each
buffer grows to the most rows any call has asked of it.
``embed_sequences`` runs all its groups on one set of its own, freed
when it returns, and ``forward_with_cache`` runs on a fresh set, so the
cache it returns belongs to the caller. The in-place arithmetic keeps
the operation order of the plain expressions, so every result is the
same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .alignment import _first_empty_run
from .errors import ConfigError, Count, ShapeMismatchError, check_fields, integer
from .features import DurationFeatureSequence

# keeps the pooled standard deviation differentiable at zero variance
STD_EPS = 1e-8

# real phones per encoder pass in ``embed_sequences``; past a few hundred
# rows the conv GEMMs and elementwise passes lose throughput, and every
# row adds to the peak resident memory
_GROUP_PHONES = 192


@dataclass(frozen=True)
class ModelConfig:
    """Encoder dimensions; one dilated convolution block per dilation."""

    n_classes: Count
    n_speakers: Count
    proj_dim: Count = 128
    encoder_channels: Count = 128
    dilations: tuple[Count, ...] = (1, 2, 3)
    kernel_width: Count = 3
    embed_dim: Count = 128
    attention_hidden: Count = 64

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.dilations:
            raise ConfigError("need at least one dilation")
        if self.kernel_width % 2 == 0:
            raise ConfigError("kernel width must be odd for centered padding")

    @property
    def n_blocks(self) -> int:
        return len(self.dilations)

    @property
    def conv_reach(self) -> int:
        """Steps the widest convolution reads on either side of its centre."""
        return max(self.dilations) * (self.kernel_width - 1) // 2


class _Workspace:
    """Named float64 work buffers, reused by every pass that is given the workspace.

    ``take(name, *shape)`` returns the first ``prod(shape)`` values of
    buffer ``name`` as an array of that shape. A buffer grows to exactly
    the most values asked of it and never shrinks. It holds whatever its
    last user left, so every caller writes a buffer before reading it.
    The last view of each buffer is kept, since the finite-difference
    check asks for the same small shapes over a thousand times.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        view = self._views.get(name)
        if view is None or view.shape != shape:
            size = math.prod(shape)
            buf = self._buffers.get(name)
            if buf is None or buf.size < size:
                buf = self._buffers[name] = np.empty(size)
            view = self._views[name] = buf[:size].reshape(shape)
        return view

    def padded(self, name: str, rows: int, margin: int, cols: int) -> np.ndarray:
        """Buffer ``name`` as ``(rows + 2 * margin, cols)``, its margin rows set to 0.0."""
        xp = self.take(name, rows + 2 * margin, cols)
        xp[:margin] = 0.0
        xp[margin + rows :] = 0.0
        return xp


@dataclass
class ModelParams:
    """Named parameter tensors in a fixed declaration order.

    A params object also owns the work buffers that ``loss_and_grad``
    and ``forward`` run on, so that training steps reuse their memory.
    The buffers are not part of the model: comparisons, ``copy`` and
    model files leave them out. Two threads must not share one params
    object; give each thread its own ``copy()``.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    _work: _Workspace = field(default_factory=_Workspace, init=False, repr=False, compare=False)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


@dataclass(frozen=True)
class Batch:
    """Duration rows of ``B`` items laid end to end, their shape checked when built.

    The ``P`` real phones of all items sit in item order; item ``b`` owns
    ``classes[offsets[b]:offsets[b + 1]]`` and the same run of ``frames``.
    Construction raises ``ShapeMismatchError`` unless ``classes`` and
    ``frames`` are 1-D of one length ``P``, ``offsets`` are integers that
    rise strictly from 0 to ``P`` (every item has at least one phone, the
    rule a corpus's utterances follow), ``classes`` are integers,
    ``frames`` real numbers and ``labels`` ``None`` or one integer per
    item. Classes, offsets and labels are stored as int64 and frames as
    float64. The right-padded
    ``(B, T)`` grid is only a derived view (``class_idx``, ``lengths``,
    ``mask``) for readers of that form; the model never builds it. The
    batch keeps no caches: every pass checks its current classes and
    labels against the model's config, and its frames, so one changed in
    place after a pass is checked again.
    """

    classes: np.ndarray  # (P,) int64 phone class of each real phone
    frames: np.ndarray  # (P,) float64 its frame count
    offsets: np.ndarray  # (B + 1,) int64 first phone of each item, then P
    labels: np.ndarray | None = None  # (B,) int64

    def __post_init__(self) -> None:
        classes, frames, labels = self.classes, self.frames, self.labels
        if classes.dtype.kind not in "iu" or frames.dtype.kind not in "iuf":
            raise ShapeMismatchError("classes must be integers and frames real numbers")
        if classes.ndim != 1 or classes.shape != frames.shape:
            raise ShapeMismatchError("classes and frames must be 1-D and of one length")
        empty = _first_empty_run(self.offsets, classes.size, None, "batch item", ShapeMismatchError)
        if empty is not None:
            raise ShapeMismatchError("every batch item needs at least one phone")
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64))
        object.__setattr__(self, "classes", classes.astype(np.int64, copy=False))
        object.__setattr__(self, "frames", frames.astype(np.float64, copy=False))
        if labels is not None:
            if labels.dtype.kind not in "iu" or labels.shape != (self.size,):
                raise ShapeMismatchError("labels must be one integer per batch item")
            object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    @property
    def size(self) -> int:
        return self.offsets.size - 1

    def _padded(self, values: np.ndarray) -> np.ndarray:
        """``(B, T)`` grid of per-phone ``values``, each item's run right-padded with 0."""
        n = np.diff(self.offsets)
        grid = np.zeros((n.size, int(n.max())), dtype=values.dtype)
        grid[np.arange(grid.shape[1]) < n[:, None]] = values
        return grid

    @property
    def class_idx(self) -> np.ndarray:
        """``(B, T)`` int64 classes, 0 at padded steps."""
        return self._padded(self.classes)

    @property
    def lengths(self) -> np.ndarray:
        """``(B, T)`` float64 frame counts, 0.0 at padded steps."""
        return self._padded(self.frames)

    @property
    def mask(self) -> np.ndarray:
        """``(B, T)`` float64, 1 on each item's prefix of real steps, 0 after."""
        return self._padded(np.ones(self.classes.size))


@dataclass(frozen=True)
class PackedLayout:
    """Where each real step of a batch sits in the convolutions' packed rows.

    Item ``b`` keeps its ``n_b`` real steps on consecutive rows; ``gap``
    zero rows separate neighbouring items, so a convolution that reaches
    at most ``gap`` steps to either side never mixes two items. A ``gap``
    of 0 (kernel width 1) packs items edge to edge. The ``P`` real steps
    keep the batch's item order, so item ``b`` owns the run
    ``starts[b] : starts[b] + n_b``.
    """

    rows: int  # packed length L
    slots: np.ndarray  # (P,) packed row of each real step
    classes: np.ndarray  # (P,) its phone class
    coef: np.ndarray  # (P, 1) its frame count
    items: np.ndarray  # (P,) its batch item
    starts: np.ndarray  # (B,) first real step of each item
    gaps: np.ndarray  # (L - P,) the packed rows between items

    @classmethod
    def of(cls, batch: Batch, gap: int) -> "PackedLayout":
        offsets = batch.offsets
        items = np.repeat(np.arange(batch.size), np.diff(offsets))
        # the gap after item b starts where item b + 1 would without gaps
        before = offsets[1:-1] + gap * np.arange(batch.size - 1)
        return cls(
            rows=items.size + gap * (batch.size - 1),
            slots=np.arange(items.size) + gap * items,
            classes=batch.classes,
            coef=batch.frames[:, None],
            items=items,
            starts=offsets[:-1],
            gaps=(before[:, None] + np.arange(gap)).ravel(),
        )

    def class_sums(self, packed: np.ndarray, n_classes: int, work: _Workspace) -> np.ndarray:
        """Per class, the sum of ``coef`` times the real steps' ``(L, C)`` packed rows.

        This is the gradient of the projection given the gradient of its
        packed output; one segmented sum over class-sorted rows, gathered
        into the ``tap`` buffer of ``work``.
        """
        order = np.argsort(self.classes, kind="stable")
        classes = self.classes[order]
        starts = np.flatnonzero(np.concatenate(([True], classes[1:] != classes[:-1])))
        rows = work.take("tap", order.size, packed.shape[1])
        packed.take(self.slots[order], axis=0, out=rows, mode="clip")
        rows *= self.coef[order]
        sums = np.zeros((n_classes, packed.shape[1]))
        sums[classes[starts]] = np.add.reduceat(rows, starts, axis=0)
        return sums


def pad_batch(
    items: Sequence[DurationFeatureSequence],
    labels: Sequence[int] | None = None,
) -> Batch:
    """Lay variable-length sequences end to end in one batch; ``Batch`` checks them."""
    if not items:
        raise ShapeMismatchError("a batch needs at least one item")
    return Batch(
        classes=np.concatenate([r.class_indices for r in items]),
        frames=np.concatenate([r.lengths for r in items]),
        offsets=np.fromiter(accumulate(map(len, items), initial=0), dtype=np.int64),
        labels=None if labels is None else np.asarray(labels),
    )


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


def _conv2d(
    xp: np.ndarray, w: np.ndarray, dilation: int, out: np.ndarray, tap: np.ndarray
) -> np.ndarray:
    """Dilated 1-d convolution with centered zero padding, written to ``out``.

    ``xp`` holds the ``T = len(out)`` input rows between two equal
    margins of zero rows, each at least as wide as the kernel reaches;
    ``w`` is ``(K, Cin, Cout)``. The first tap's product is written to
    ``out`` and each later one, in kernel order, goes to the ``(T, Cout)``
    buffer ``tap`` and is added.
    """
    t = out.shape[0]
    first = (xp.shape[0] - t) // 2 - dilation * (w.shape[0] - 1) // 2
    np.matmul(xp[first : first + t], w[0], out=out)
    for j in range(1, w.shape[0]):
        s = first + j * dilation
        out += np.matmul(xp[s : s + t], w[j], out=tap)
    return out


def _conv2d_backward(
    xp: np.ndarray,
    w: np.ndarray,
    dilation: int,
    dz: np.ndarray,
    dxp: np.ndarray,
    tap: np.ndarray,
) -> np.ndarray:
    """The kernel gradient of ``_conv2d``; the input gradient goes to ``dxp``.

    ``dxp`` has the shape of ``xp`` and ends up holding the input
    gradient in the rows where ``xp`` holds the input; ``tap`` is a ``(T,
    Cin)`` buffer. The first tap's product fills its window of ``dxp``
    and the rows after it start at zero; the rows before it are margin
    that no tap reaches, left as they were.
    """
    t = dz.shape[0]
    first = (xp.shape[0] - t) // 2 - dilation * (w.shape[0] - 1) // 2
    dw = np.empty_like(w)
    np.dot(xp[first : first + t].T, dz, out=dw[0])
    np.matmul(dz, w[0].T, out=dxp[first : first + t])
    dxp[first + t :] = 0.0
    for j in range(1, w.shape[0]):
        s = first + j * dilation
        np.dot(xp[s : s + t].T, dz, out=dw[j])
        dxp[s : s + t] += np.matmul(dz, w[j].T, out=tap)
    return dw


def _padded_rows(x: np.ndarray, pad: int) -> np.ndarray:
    """The rows of a ``(1, T, C)`` array between ``pad`` zero rows on either side."""
    xp = np.zeros((x.shape[1] + 2 * pad, x.shape[2]))
    xp[pad : pad + x.shape[1]] = x[0]
    return xp


def _conv_same(x: np.ndarray, w: np.ndarray, dilation: int) -> np.ndarray:
    """``_conv2d`` of one packed ``(1, T, Cin)`` array, giving ``(1, T, Cout)``."""
    xp = _padded_rows(x, dilation * (w.shape[0] - 1) // 2)
    out = np.empty((x.shape[1], w.shape[2]))
    return _conv2d(xp, w, dilation, out, np.empty_like(out))[None]


def _conv_same_backward(
    x: np.ndarray, w: np.ndarray, dilation: int, dz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``_conv_same`` w.r.t. the kernel and the ``(1, T, Cin)`` input."""
    pad = dilation * (w.shape[0] - 1) // 2
    xp = _padded_rows(x, pad)
    dxp = np.empty_like(xp)
    dw = _conv2d_backward(xp, w, dilation, dz[0], dxp, np.empty_like(x[0]))
    return dw, dxp[None, pad : pad + x.shape[1]]


@dataclass
class ForwardCache:
    """Intermediates needed for the backward pass (and for inspection).

    The block fields hold, as ``(1, L, C)`` views, the packed rows the
    convolution blocks ran on (see ``layout``): each block's input, with
    0.0 in the gap rows, and its tanh output. The fields from ``encoded``
    to ``centered`` hold one row per real step, ``(P, .)`` in item order;
    the rest hold one row per item. No field holds a padded step. The
    pass that built the cache checked the batch's values as they were
    then; the cache does not follow later changes to the batch. The
    encoder stage fills the fields up to ``att_hidden``;
    ``embed_sequences`` reads only those and pools each item's rows on
    its own, so there the later fields stay ``None``.

    The large fields are views of 2-D work buffers. A cache from
    ``forward_with_cache`` owns a set of its own, so it stays as it is
    whatever runs on the same params later; the caches that the other
    passes build internally live in the params' reused set.
    """

    layout: PackedLayout
    block_inputs: list[np.ndarray] = field(default_factory=list)  # packed, gaps 0.0
    block_acts: list[np.ndarray] = field(default_factory=list)  # tanh outputs, packed
    encoded: np.ndarray | None = None  # (P,C) last block output
    att_hidden: np.ndarray | None = None  # (P,A) tanh of attention layer
    attention: np.ndarray | None = None  # (P,) pooling weights, summing to 1 per item
    centered: np.ndarray | None = None  # (P,C) encoded minus its item's mean
    std: np.ndarray | None = None  # (B,C)
    pooled: np.ndarray | None = None
    embeddings: np.ndarray | None = None
    logits: np.ndarray | None = None


def _layout(config: ModelConfig, batch: Batch) -> PackedLayout:
    """The batch's packed layout, once its current values fit the config.

    ``Batch`` checked its shape and types when built; its classes, frames
    and labels are checked here, on every pass, as they are now.
    """
    classes, frames, labels = batch.classes, batch.frames, batch.labels
    if classes.min() < 0 or classes.max() >= config.n_classes:
        raise ShapeMismatchError("class index outside the configured inventory")
    # written so that a NaN frame count fails it
    if not 1.0 <= frames.min() <= frames.max() < math.inf:
        raise ShapeMismatchError("frame counts must be finite and >= 1")
    if labels is not None and (labels.min() < 0 or labels.max() >= config.n_speakers):
        raise ShapeMismatchError("speaker label outside the configured range")
    return PackedLayout.of(batch, config.conv_reach)


def _encode(
    params: ModelParams, layout: PackedLayout, work: _Workspace, start: int = 0
) -> ForwardCache:
    """The encoder stage: a cache filled up to ``att_hidden``, in ``work``'s buffers.

    Projection, convolution blocks and the attention hidden layer run on
    the packed layout; every product here has one row per packed or real
    step. Block ``i``'s input lives in buffer ``x{i}``, with
    ``conv_reach`` zero rows on either side for the taps to read, and its
    output in ``act{i}``; the real rows of the last block's output live
    in ``enc`` and the attention hidden layer in ``att``.

    ``start`` is the first stage run: 0 the projection, ``i + 1``
    convolution block ``i``, ``n_blocks + 1`` the attention hidden layer,
    and ``n_blocks + 2`` none of them. A stage skipped is read from the
    buffers where the last pass on ``work`` left it, so a pass that starts
    at stage ``s`` equals a full pass to the bit whenever the tensors read
    before stage ``s`` have not changed since that pass on this layout.
    """
    cfg = params.config
    tensors = params.tensors
    reach = cfg.conv_reach
    rows, n_real, c = layout.rows, layout.classes.size, cfg.encoder_channels

    cache = ForwardCache(layout)
    if start == 0:
        x = work.padded("x0", rows, reach, cfg.proj_dim)[reach : reach + rows]
        proj = work.take("tap", n_real, cfg.proj_dim)
        tensors["proj"].take(layout.classes, axis=0, out=proj, mode="clip")
        proj *= layout.coef
        x[layout.slots] = proj
    c_in = cfg.proj_dim
    for i, dilation in enumerate(cfg.dilations):
        xp = work.take(f"x{i}", rows + 2 * reach, c_in)
        x = xp[reach : reach + rows]
        act = work.take(f"act{i}", rows, c)
        cache.block_inputs.append(x[None])
        cache.block_acts.append(act[None])
        c_in = c
        if i + 1 < start:
            continue
        x[layout.gaps] = 0.0
        _conv2d(xp, tensors[f"block{i}_w"], dilation, act, work.take("tap", rows, c))
        act += tensors[f"block{i}_b"]
        np.tanh(act, out=act)
        # the block's output, act + residual, is the next block's input;
        # the last block's goes to the spent tap buffer
        if i + 1 < cfg.n_blocks:
            h = work.padded(f"x{i + 1}", rows, reach, c)[reach : reach + rows]
        else:
            h = work.take("tap", rows, c)
        if x.shape[1] == c:
            np.add(act, x, out=h)
        else:
            np.matmul(x, tensors[f"block{i}_res"], out=h)
            h += act
    cache.encoded = work.take("enc", n_real, c)
    if start <= cfg.n_blocks:
        h.take(layout.slots, axis=0, out=cache.encoded, mode="clip")
    u = cache.att_hidden = work.take("att", n_real, cfg.attention_hidden)
    if start <= cfg.n_blocks + 1:
        np.matmul(cache.encoded, tensors["att_w"], out=u)
        u += tensors["att_b"]
        np.tanh(u, out=u)
    return cache


def _pool(
    tensors: dict[str, np.ndarray],
    h: np.ndarray,
    u: np.ndarray,
    items: np.ndarray,
    starts: np.ndarray,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pooling and embedding stage on real rows in item order.

    ``h`` and ``u`` are the encoder output and attention hidden layer,
    ``(P, C)`` and ``(P, A)``; ``items`` gives each row's item and
    ``starts`` each item's first row. Returns the attention weights, the
    centered rows (in ``work``'s ``cen`` buffer), the std, the pooled
    statistics and the embeddings.
    """
    # softmax over each item's run of real steps
    e = u @ tensors["att_v"] + tensors["att_v0"]
    w = np.exp(e - np.maximum.reduceat(e, starts)[items])
    alpha = w / np.add.reduceat(w, starts)[items]

    # per-item weighted sums as one product with the (B, P) weight matrix
    weights = work.take("weights", starts.size, alpha.size)
    weights.fill(0.0)
    weights[items, np.arange(alpha.size)] = alpha
    mu = weights @ h
    cen = mu.take(items, axis=0, out=work.take("cen", *h.shape), mode="clip")
    np.subtract(h, cen, out=cen)
    sq = np.multiply(cen, cen, out=work.take("tap", *h.shape))
    std = np.sqrt(weights @ sq + STD_EPS)
    pooled = np.concatenate([mu, std], axis=1)

    emb = pooled @ tensors["emb_w"] + tensors["emb_b"]
    return alpha, cen, std, pooled, emb


def _forward(
    params: ModelParams, layout: PackedLayout, work: _Workspace, start: int = 0
) -> ForwardCache:
    """Both stages and the logits; ``start`` is ``_encode``'s first stage."""
    tensors = params.tensors
    cache = _encode(params, layout, work, start)
    (
        cache.attention,
        cache.centered,
        cache.std,
        cache.pooled,
        cache.embeddings,
    ) = _pool(tensors, cache.encoded, cache.att_hidden, layout.items, layout.starts, work)
    cache.logits = cache.embeddings @ tensors["cls_w"] + tensors["cls_b"]
    return cache


def forward_with_cache(params: ModelParams, batch: Batch) -> ForwardCache:
    """The forward pass with every intermediate, in buffers the caller owns."""
    return _forward(params, _layout(params.config, batch), _Workspace())


def forward(params: ModelParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings (B, embed_dim) and speaker logits (B, n_speakers)."""
    cache = _forward(params, _layout(params.config, batch), params._work)
    return cache.embeddings, cache.logits


def _groups(sizes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Runs ``first:stop`` of consecutive sizes summing to at most ``_GROUP_PHONES``.

    A size past the bound, or a size of 1, makes a run of its own.
    """
    first = total = 0
    for i, n in enumerate(sizes):
        if i > first and (total + n > _GROUP_PHONES or n == 1 or sizes[first] == 1):
            yield first, i
            first, total = i, 0
        total += n
    if sizes:
        yield first, len(sizes)


def embed_sequences(
    params: ModelParams, sequences: Sequence[DurationFeatureSequence]
) -> np.ndarray:
    """Embeddings ``(S, embed_dim)`` of many sequences, each its batch-1 forward's.

    The sequences are packed in order into groups of at most
    ``_GROUP_PHONES`` real phones, and the encoder stage runs once per
    group. A GEMM's row results do not depend on how many rows it gets,
    as long as it gets at least two, so each sequence's encoder rows
    equal its own forward's to the bit. A one-row product takes BLAS's
    matrix-vector path and other last bits, so pooling runs per sequence
    on its own rows, the calls a batch-1 forward makes, and a one-phone
    sequence is encoded alone. The groups share one set of work buffers,
    freed on return: kept with the params, it would stay resident after
    scoring.
    """
    out = np.empty((len(sequences), params.config.embed_dim))
    one = np.zeros(1, dtype=np.int64)
    work = _Workspace()
    for first, stop in _groups([len(s) for s in sequences]):
        batch = pad_batch(sequences[first:stop])
        cache = _encode(params, _layout(params.config, batch), work)
        bounds = batch.offsets.tolist()
        for row, (s, e) in enumerate(zip(bounds, bounds[1:]), first):
            *_, emb = _pool(
                params.tensors,
                cache.encoded[s:e],
                cache.att_hidden[s:e],
                np.zeros(e - s, dtype=np.int64),
                one,
                work,
            )
            out[row] = emb[0]
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _mean_nll(logp: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the rows of minus each row's log-probability of its label."""
    return -float(logp[np.arange(labels.size), labels].mean())


def _cross_entropy(
    tensors: dict[str, np.ndarray], cache: ForwardCache, labels: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """The head: the mean softmax cross-entropy of the cached logits, its
    gradient w.r.t. the embeddings, and the classifier's gradients."""
    b = labels.size
    logp = _log_softmax(cache.logits)
    dlogits = np.exp(logp)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    grads = {"cls_w": cache.embeddings.T @ dlogits, "cls_b": dlogits.sum(axis=0)}
    return _mean_nll(logp, labels), dlogits @ tensors["cls_w"].T, grads


def _loss(params: ModelParams, layout: PackedLayout, labels: np.ndarray, start: int) -> float:
    """The mean cross-entropy alone, of a pass on the params' buffers from stage ``start``."""
    cache = _forward(params, layout, params._work, start)
    return _mean_nll(_log_softmax(cache.logits), labels)


def _encoder_backward(
    params: ModelParams, layout: PackedLayout, cache: ForwardCache, demb: np.ndarray
) -> dict[str, np.ndarray]:
    """The gradients of every encoder tensor, ``emb_*`` down to ``proj``, given
    ``demb``, the loss's gradient w.r.t. the embeddings of the pass ``cache``
    holds; it runs on the params' buffers, which that pass filled."""
    cfg = params.config
    tensors = params.tensors
    work = params._work
    grads = {"emb_w": cache.pooled.T @ demb, "emb_b": demb.sum(axis=0)}
    dpooled = demb @ tensors["emb_w"].T

    c = cfg.encoder_channels
    items, starts = layout.items, layout.starts
    alpha, h = cache.attention, cache.encoded
    cen, std = cache.centered, cache.std
    n_real = alpha.size
    dmu = dpooled[:, :c].take(items, axis=0, out=work.take("dmu", n_real, c), mode="clip")
    dvar = (dpooled[:, c:] * 0.5 / std).take(
        items, axis=0, out=work.take("dvar", n_real, c), mode="clip"
    )

    # variance path; the direct mean term vanishes since each item's
    # sum of alpha*cen is 0; then the mean path
    sq = np.multiply(cen, cen, out=work.take("tap", n_real, c))
    dalpha = np.einsum("pc,pc->p", sq, dvar) + np.einsum("pc,pc->p", h, dmu)
    # alpha * (2 * cen * dvar + dmu), in the spent square's buffer
    denc = np.multiply(cen, 2.0, out=sq)
    denc *= dvar
    denc += dmu
    denc *= alpha[:, None]

    # softmax over each item's run of real steps
    de = alpha * (dalpha - np.add.reduceat(dalpha * alpha, starts)[items])

    u = cache.att_hidden
    grads["att_v"] = de @ u
    grads["att_v0"] = np.asarray(de.sum())
    # de * att_v * (1 - u * u), the tanh slope in dvar's spent buffer
    ds1 = np.multiply(de[:, None], tensors["att_v"], out=work.take("ds1", *u.shape))
    slope = np.multiply(u, u, out=work.take("dvar", *u.shape))
    ds1 *= np.subtract(1.0, slope, out=slope)
    grads["att_w"] = h.T @ ds1
    grads["att_b"] = ds1.sum(axis=0)
    denc += np.matmul(ds1, tensors["att_w"].T, out=dmu)

    # the gradient w.r.t. a block's output and the one w.r.t. its input
    # live in the buffers g0 and g1, which swap roles from block to block
    reach, rows = cfg.conv_reach, layout.rows
    dh = work.take("g0", rows + 2 * reach, c)[reach : reach + rows]
    dh[layout.gaps] = 0.0
    dh[layout.slots] = denc
    spare = "g1"
    for i in reversed(range(cfg.n_blocks)):
        x, act = cache.block_inputs[i][0], cache.block_acts[i][0]
        c_in = x.shape[1]
        dz = np.multiply(act, act, out=work.take("dz", rows, c))
        np.subtract(1.0, dz, out=dz)
        dz *= dh
        # the block's padded input, as _encode left it
        xp = work.take(f"x{i}", rows + 2 * reach, c_in)
        dxp = work.take(spare, rows + 2 * reach, c_in)
        tap = work.take("tap", rows, c_in)
        grads[f"block{i}_w"] = _conv2d_backward(
            xp, tensors[f"block{i}_w"], cfg.dilations[i], dz, dxp, tap
        )
        grads[f"block{i}_b"] = dz.sum(axis=0)
        dx = dxp[reach : reach + rows]
        if c_in == c:
            dx += dh
        else:
            grads[f"block{i}_res"] = np.dot(x.T, dh)
            dx += np.matmul(dh, tensors[f"block{i}_res"].T, out=tap)
        dx[layout.gaps] = 0.0
        spare = "g0" if spare == "g1" else "g1"
        dh = dx

    grads["proj"] = layout.class_sums(dh, cfg.n_classes, work)
    return grads


def loss_and_grad(
    params: ModelParams, batch: Batch
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its exact parameter gradient."""
    if batch.labels is None:
        raise ShapeMismatchError("loss needs speaker labels")
    layout = _layout(params.config, batch)
    cache = _forward(params, layout, params._work)
    loss, demb, grads = _cross_entropy(params.tensors, cache, batch.labels)
    grads |= _encoder_backward(params, layout, cache, demb)
    return loss, {name: grads[name] for name in params.tensors}


def _pack(tensors: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([v.ravel() for v in tensors.values()])


# the finite-difference step, and the items per random batch and their
# largest phone count, in ``gradient_check``
_GRADCHECK_STEP = 1e-5
_GRADCHECK_BATCH = 3
_GRADCHECK_MAX_T = 12


def _first_reader(name: str, n_blocks: int) -> int:
    """The first ``_encode`` stage that reads parameter ``name``."""
    if name == "proj":
        return 0
    if name.startswith("block"):
        return int(name[len("block") : name.index("_")]) + 1
    return n_blocks + (1 if name in ("att_w", "att_b") else 2)


def _random_batch(config: ModelConfig, rng: np.random.Generator) -> Batch:
    items = []
    labels = []
    for _ in range(_GRADCHECK_BATCH):
        t = int(rng.integers(3, _GRADCHECK_MAX_T + 1))
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


def gradient_check(config: ModelConfig, seed: int = 0, n_draws: int = 20) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Every parameter coordinate is perturbed by ``+-_GRADCHECK_STEP``. The
    relative error uses a 1e-5 floor in the denominator so coordinates with
    near-zero gradients are judged on absolute error.

    Each perturbed loss comes from a pass that starts at the first stage
    reading the perturbed tensor (see ``_encode``): the projection for
    ``proj``, convolution block ``i`` for ``block{i}_*``, the attention
    hidden layer for ``att_w`` and ``att_b``, and pooling for the rest.
    Before a tensor's perturbations, one clean pass leaves the earlier
    stages' outputs in the params' buffers. Those stages do not read the
    tensor, so a pass from the projection would recompute the same
    values, and each loss equals that pass's to the bit: the report is
    the one full passes give.
    """
    seed, n_draws = integer("seed", seed, 0), integer("n_draws", n_draws, 1)
    errors: list[float] = []
    n_params = 0
    for draw in range(n_draws):
        rng = np.random.default_rng([seed, draw])
        params = init_model(config, rng)
        # biases start at zero; jitter everything so the check explores
        # a generic point in parameter space
        for v in params.tensors.values():
            v += 0.05 * rng.standard_normal(v.shape)
        batch = _random_batch(config, rng)
        layout = _layout(config, batch)

        _, grads = loss_and_grad(params, batch)
        analytic = _pack(grads)
        n_params = analytic.size

        numeric = np.empty_like(analytic)
        pos = 0
        for name, tensor in params.tensors.items():
            start = _first_reader(name, config.n_blocks)
            # refill the buffers that the perturbed passes read
            _forward(params, layout, params._work)
            flat = tensor.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + _GRADCHECK_STEP
                up = _loss(params, layout, batch.labels, start)
                flat[j] = orig - _GRADCHECK_STEP
                down = _loss(params, layout, batch.labels, start)
                flat[j] = orig
                numeric[pos] = (up - down) / (2.0 * _GRADCHECK_STEP)
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
    "embed_sequences",
    "forward",
    "forward_with_cache",
    "gradient_check",
    "init_model",
    "loss_and_grad",
    "pad_batch",
    "parameter_shapes",
    "tiny_gradcheck_config",
]
