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
embedding does not depend on the other items of its batch. ``loss_and_grad``
returns the exact gradient of the mean softmax cross-entropy;
``gradient_check`` compares it against central finite differences.

The forward pass runs in two stages: the encoder stage (projection,
convolution blocks and the attention hidden layer, on the packed layout)
and the pooling stage (attention scores, per-item softmax, weighted mean
and std, embedding layer). Training runs both on the whole batch.
``embed_sequences`` runs the encoder stage once per group of sequences
and the pooling stage per sequence, so every embedding equals the one a
batch-1 ``forward`` gives, to the bit.

Every large intermediate is a 2-D ``(rows, C)`` array in a named work
buffer, written in place. ``loss_and_grad``, ``forward`` and
``loss_value`` run on the buffers the params object owns, so successive
training steps reuse one set of memory instead of allocating and
faulting in fresh arrays; each buffer grows to the most rows any call
has asked of it. ``embed_sequences`` runs all its groups on one set of
its own, freed when it returns, and ``forward_with_cache`` runs on a
fresh set, so the cache it returns belongs to the caller. The in-place
arithmetic keeps the operation order of the plain expressions, so every
result is the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError, check_fields
from .features import Chunk, DurationFeatureSequence

# keeps the pooled standard deviation differentiable at zero variance
STD_EPS = 1e-8

# real phones per encoder pass in ``embed_sequences``; past a few hundred
# rows the conv GEMMs and elementwise passes lose throughput, and every
# row adds to the peak resident memory
_GROUP_PHONES = 192


@dataclass(frozen=True)
class ModelConfig:
    """Encoder dimensions; one dilated convolution block per dilation."""

    n_classes: int
    n_speakers: int
    proj_dim: int = 128
    encoder_channels: int = 128
    dilations: tuple[int, ...] = (1, 2, 3)
    kernel_width: int = 3
    embed_dim: int = 128
    attention_hidden: int = 64

    def __post_init__(self) -> None:
        check_fields(self)
        if any(v < 1 for v in vars(self).values() if isinstance(v, int)):
            raise ConfigError("all model dimensions must be >= 1")
        if not self.dilations:
            raise ConfigError("need at least one dilation")
        if min(self.dilations) < 1:
            raise ConfigError("dilations must be >= 1")
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

    A params object also owns the work buffers that ``loss_and_grad``,
    ``forward`` and ``loss_value`` run on, so that training steps reuse
    their memory. The buffers are not part of the model: comparisons,
    ``copy`` and model files leave them out. Two threads must not share
    one params object; give each thread its own ``copy()``.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    _work: _Workspace = field(default_factory=_Workspace, init=False, repr=False, compare=False)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.tensors.values())


@dataclass(frozen=True)
class Batch:
    """Duration rows of ``B`` items laid end to end, checked once when built.

    The ``P`` real phones of all items sit in item order; item ``b`` owns
    ``classes[offsets[b]:offsets[b + 1]]`` and the same run of ``frames``.
    Construction raises ``ShapeMismatchError`` unless ``classes`` and
    ``frames`` are 1-D of one length ``P``, ``offsets`` rises strictly
    from 0 to ``P`` (every item has at least one phone), and ``labels``
    is ``None`` or one label per item. The right-padded ``(B, T)`` grid
    is only a derived view (``class_idx``, ``lengths``, ``mask``) for
    readers of that form; the model never builds it.
    """

    classes: np.ndarray  # (P,) int64 phone class of each real phone
    frames: np.ndarray  # (P,) float64 its frame count
    offsets: np.ndarray  # (B + 1,) int64 first phone of each item, then P
    labels: np.ndarray | None = None  # (B,) int64
    # packed layouts already built for this batch, by gap width; the
    # finite-difference check forwards one batch over a thousand times
    _layouts: dict[int, "PackedLayout"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        classes, frames, offsets = self.classes, self.frames, self.offsets
        if classes.dtype.kind != "i" or offsets.dtype.kind != "i":
            raise ShapeMismatchError("classes and offsets must be integer arrays")
        if classes.ndim != 1 or classes.shape != frames.shape:
            raise ShapeMismatchError("classes and frames must be 1-D and of one length")
        if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != classes.size:
            raise ShapeMismatchError("offsets must run from 0 to the phone count")
        if np.any(offsets[1:] <= offsets[:-1]):
            raise ShapeMismatchError("every batch item needs at least one phone")
        if self.labels is not None and self.labels.shape != (self.size,):
            raise ShapeMismatchError("labels must be one integer per batch item")

    @property
    def size(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def _value_range(self) -> tuple[int, int, int, int]:
        """Smallest and largest class, then label (0 and 0 without labels).

        The model checks these against its config on every pass; the
        finite-difference check passes one batch over a thousand times.
        """
        labels = self.labels if self.labels is not None else np.zeros(1, dtype=np.int64)
        return (
            int(self.classes.min()),
            int(self.classes.max()),
            int(labels.min()),
            int(labels.max()),
        )

    def packed(self, gap: int) -> "PackedLayout":
        """The batch's packed layout with ``gap`` zero rows between items."""
        layout = self._layouts.get(gap)
        if layout is None:
            layout = self._layouts[gap] = PackedLayout.of(self, gap)
        return layout

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

    @cached_property
    def _class_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Packed rows and coefficients sorted by class, each run's class and start."""
        order = np.argsort(self.classes, kind="stable")
        classes = self.classes[order]
        starts = np.flatnonzero(np.concatenate(([True], classes[1:] != classes[:-1])))
        return self.slots[order], self.coef[order], classes[starts], starts

    def class_sums(self, packed: np.ndarray, n_classes: int, work: _Workspace) -> np.ndarray:
        """Per class, the sum of ``coef`` times the real steps' ``(L, C)`` packed rows.

        This is the gradient of the projection given the gradient of its
        packed output; one segmented sum over class-sorted rows, gathered
        into the ``tap`` buffer of ``work``.
        """
        slots, coef, classes, starts = self._class_runs
        rows = work.take("tap", slots.size, packed.shape[1])
        packed.take(slots, axis=0, out=rows, mode="clip")
        rows *= coef
        sums = np.zeros((n_classes, packed.shape[1]))
        sums[classes] = np.add.reduceat(rows, starts, axis=0)
        return sums


def pad_batch(
    items: Sequence[DurationFeatureSequence | Chunk],
    labels: Sequence[int] | None = None,
) -> Batch:
    """Lay variable-length sequences end to end in one batch."""
    rows = [it.rows if isinstance(it, Chunk) else it for it in items]
    if not rows:
        raise ShapeMismatchError("a batch needs at least one item")
    return Batch(
        classes=np.concatenate([r.class_indices for r in rows]).astype(np.int64, copy=False),
        frames=np.concatenate([r.lengths for r in rows]).astype(np.float64, copy=False),
        offsets=np.fromiter(accumulate(map(len, rows), initial=0), dtype=np.int64),
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
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
    ``w`` is ``(K, Cin, Cout)``. Each tap's product goes to the ``(T,
    Cout)`` buffer ``tap`` and is added from zero in kernel order.
    """
    t = out.shape[0]
    first = (xp.shape[0] - t) // 2 - dilation * (w.shape[0] - 1) // 2
    out.fill(0.0)
    for j in range(w.shape[0]):
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
    Cin)`` buffer.
    """
    t = dz.shape[0]
    first = (xp.shape[0] - t) // 2 - dilation * (w.shape[0] - 1) // 2
    dw = np.empty_like(w)
    dxp.fill(0.0)
    for j in range(w.shape[0]):
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
    mean: np.ndarray | None = None  # (B,C)
    std: np.ndarray | None = None
    pooled: np.ndarray | None = None
    embeddings: np.ndarray | None = None
    logits: np.ndarray | None = None


def _validate_batch(config: ModelConfig, batch: Batch) -> None:
    """Check the batch's values against the config; ``Batch`` checked its shape."""
    low_class, high_class, low_label, high_label = batch._value_range
    if high_class >= config.n_classes or low_class < 0:
        raise ShapeMismatchError("class index outside the configured inventory")
    if high_label >= config.n_speakers or low_label < 0:
        raise ShapeMismatchError("speaker label outside the configured range")


def _encode(params: ModelParams, batch: Batch, work: _Workspace) -> ForwardCache:
    """The encoder stage: a cache filled up to ``att_hidden``, in ``work``'s buffers.

    Projection, convolution blocks and the attention hidden layer run on
    the batch's packed layout; every product here has one row per packed
    or real step. Block ``i``'s input lives in buffer ``x{i}``, with
    ``conv_reach`` zero rows on either side for the taps to read, and its
    output in ``act{i}``.
    """
    cfg = params.config
    _validate_batch(cfg, batch)
    tensors = params.tensors
    reach = cfg.conv_reach
    layout = batch.packed(reach)
    rows, n_real, c = layout.rows, layout.classes.size, cfg.encoder_channels

    cache = ForwardCache(layout)
    xp = work.padded("x0", rows, reach, cfg.proj_dim)
    x = xp[reach : reach + rows]
    proj = work.take("tap", n_real, cfg.proj_dim)
    tensors["proj"].take(layout.classes, axis=0, out=proj, mode="clip")
    proj *= layout.coef
    x[layout.slots] = proj
    for i, dilation in enumerate(cfg.dilations):
        x[layout.gaps] = 0.0
        act = work.take(f"act{i}", rows, c)
        _conv2d(xp, tensors[f"block{i}_w"], dilation, act, work.take("tap", rows, c))
        act += tensors[f"block{i}_b"]
        np.tanh(act, out=act)
        cache.block_inputs.append(x[None])
        cache.block_acts.append(act[None])
        # the block's output, act + residual, is the next block's input;
        # the last block's goes to the spent tap buffer
        if i + 1 < cfg.n_blocks:
            xp = work.padded(f"x{i + 1}", rows, reach, c)
            h = xp[reach : reach + rows]
        else:
            h = work.take("tap", rows, c)
        if x.shape[1] == c:
            np.add(act, x, out=h)
        else:
            np.matmul(x, tensors[f"block{i}_res"], out=h)
            h += act
        x = h
    cache.encoded = x.take(layout.slots, axis=0, out=work.take("enc", n_real, c), mode="clip")
    u = work.take("att", n_real, cfg.attention_hidden)
    np.matmul(cache.encoded, tensors["att_w"], out=u)
    u += tensors["att_b"]
    cache.att_hidden = np.tanh(u, out=u)
    return cache


def _pool(
    tensors: dict[str, np.ndarray],
    h: np.ndarray,
    u: np.ndarray,
    items: np.ndarray,
    starts: np.ndarray,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pooling and embedding stage on real rows in item order.

    ``h`` and ``u`` are the encoder output and attention hidden layer,
    ``(P, C)`` and ``(P, A)``; ``items`` gives each row's item and
    ``starts`` each item's first row. Returns the attention weights, the
    per-item mean, the centered rows (in ``work``'s ``cen`` buffer), the
    std, the pooled statistics and the embeddings.
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
    return alpha, mu, cen, std, pooled, emb


def _forward(params: ModelParams, batch: Batch, work: _Workspace) -> ForwardCache:
    tensors = params.tensors
    cache = _encode(params, batch, work)
    layout = cache.layout
    (
        cache.attention,
        cache.mean,
        cache.centered,
        cache.std,
        cache.pooled,
        cache.embeddings,
    ) = _pool(tensors, cache.encoded, cache.att_hidden, layout.items, layout.starts, work)
    cache.logits = cache.embeddings @ tensors["cls_w"] + tensors["cls_b"]
    return cache


def forward_with_cache(params: ModelParams, batch: Batch) -> ForwardCache:
    """The forward pass with every intermediate, in buffers the caller owns."""
    return _forward(params, batch, _Workspace())


def forward(params: ModelParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings (B, embed_dim) and speaker logits (B, n_speakers)."""
    cache = _forward(params, batch, params._work)
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
        cache = _encode(params, batch, work)
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
    cache = _forward(params, batch, params._work)
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
    work = params._work
    cache = _forward(params, batch, work)
    layout = cache.layout

    loss, dlogits = _cross_entropy(cache.logits, batch.labels)
    grads: dict[str, np.ndarray] = {}

    grads["cls_w"] = cache.embeddings.T @ dlogits
    grads["cls_b"] = dlogits.sum(axis=0)
    demb = dlogits @ tensors["cls_w"].T

    grads["emb_w"] = cache.pooled.T @ demb
    grads["emb_b"] = demb.sum(axis=0)
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

    ordered = {name: grads[name] for name in tensors}
    return loss, ordered


def _pack(tensors: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([v.ravel() for v in tensors.values()])


# the finite-difference step, and the items per random batch and their
# largest phone count, in ``gradient_check``
_GRADCHECK_STEP = 1e-5
_GRADCHECK_BATCH = 3
_GRADCHECK_MAX_T = 12


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
    """
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if n_draws < 1:
        raise ConfigError("n_draws must be >= 1")
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

        _, grads = loss_and_grad(params, batch)
        analytic = _pack(grads)
        n_params = analytic.size

        numeric = np.empty_like(analytic)
        pos = 0
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + _GRADCHECK_STEP
                up = loss_value(params, batch)
                flat[j] = orig - _GRADCHECK_STEP
                down = loss_value(params, batch)
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
    "loss_value",
    "pad_batch",
    "parameter_shapes",
    "tiny_gradcheck_config",
]
