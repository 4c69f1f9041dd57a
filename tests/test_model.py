import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.embeddings import score_trials_embedding
from durasv.errors import ConfigError, ShapeMismatchError
from durasv.evaluation import build_trials
from durasv.features import DurationFeatureSequence
from durasv import model
from durasv.model import (
    Batch,
    ModelConfig,
    PackedLayout,
    embed_sequences,
    forward,
    forward_with_cache,
    gradient_check,
    init_model,
    loss_and_grad,
    pad_batch,
    tiny_gradcheck_config,
)
from durasv.synth import SynthConfig, generate_corpus, sample_speakers
from durasv.training import TrainConfig, train


def random_sequence(rng, n_classes, length):
    return DurationFeatureSequence(
        rng.integers(0, n_classes, size=length),
        rng.integers(1, 30, size=length).astype(np.float64),
        n_classes,
    )


def random_batch(rng, config, sizes):
    items = [random_sequence(rng, config.n_classes, t) for t in sizes]
    labels = rng.integers(0, config.n_speakers, size=len(sizes))
    return pad_batch(items, labels.tolist())


def row_padded(items):
    """Right-padded (B, T) grids filled row by row, the reference for the grid views."""
    b, t = len(items), max(len(it) for it in items)
    class_idx = np.zeros((b, t), dtype=np.int64)
    lengths = np.zeros((b, t))
    mask = np.zeros((b, t))
    for i, it in enumerate(items):
        k = len(it)
        class_idx[i, :k] = it.class_indices
        lengths[i, :k] = it.lengths
        mask[i, :k] = 1.0
    return class_idx, lengths, mask


class TestBatch:
    WELL_FORMED = {
        "classes": np.array([0, 1, 2]),
        "frames": np.array([3.0, 4.0, 5.0]),
        "offsets": np.array([0, 1, 3]),
    }

    def test_well_formed_batch_builds(self):
        batch = Batch(**self.WELL_FORMED, labels=np.array([0, 1]))
        assert batch.size == 2

    @pytest.mark.parametrize(
        "changes",
        [
            {"offsets": np.array([1, 3])},
            {"offsets": np.array([0, 2])},
            {"offsets": np.array([0, 1, 1, 3])},
            {"frames": np.array([3.0, 4.0])},
            {"labels": np.array([0, 1, 2])},
            {"offsets": np.array([0.0, 1.0, 3.0])},
            {"classes": np.array([[0, 1, 2]]), "frames": np.array([[3.0, 4.0, 5.0]])},
            {"classes": np.array([], dtype=np.int64), "frames": np.array([]), "offsets": np.array([0])},
            {"labels": np.array([0.0, 1.5])},
            {"labels": np.array([0.0, 1.0])},
            {"labels": np.array([True, False])},
            {"classes": np.array([0.0, 1.0, 2.0])},
            {"frames": np.array(["3", "4", "5"])},
        ],
        ids=[
            "offsets-not-from-0",
            "offsets-not-to-p",
            "repeated-offset",
            "classes-frames-lengths-differ",
            "label-count-not-b",
            "float-offsets",
            "2-d-rows",
            "no-items",
            "float-labels",
            "whole-float-labels",
            "bool-labels",
            "float-classes",
            "text-frames",
        ],
    )
    def test_malformed_batch_rejected(self, changes):
        with pytest.raises(ShapeMismatchError):
            Batch(**{**self.WELL_FORMED, **changes})

    @pytest.mark.parametrize(
        "offsets", [[1, 3], [0, 2], [0, 1, 2], [0.0, 1.0, 3.0], [[0, 1, 3]], [0]]
    )
    def test_offsets_follow_the_corpus_rule(self, offsets):
        with pytest.raises(ShapeMismatchError, match="offsets must run from 0 to 3, one per batch"):
            Batch(**{**self.WELL_FORMED, "offsets": np.array(offsets)})

    def test_fields_are_the_four_arrays(self):
        # no cache rides along with the arrays a pass reads
        assert [f.name for f in dataclasses.fields(Batch)] == [
            "classes",
            "frames",
            "offsets",
            "labels",
        ]

    def test_unsigned_offsets_stored_as_int64(self):
        batch = Batch(**{**self.WELL_FORMED, "offsets": np.array([0, 1, 3], np.uint64)})
        assert batch.offsets.dtype == np.int64 and batch.offsets.tolist() == [0, 1, 3]

    def test_integer_classes_and_labels_stored_as_int64_and_frames_as_float64(self):
        batch = Batch(
            classes=np.array([0, 1, 2], np.int32),
            frames=np.array([3, 4, 5], np.int32),
            offsets=np.array([0, 1, 3]),
            labels=np.array([1, 0], np.uint8),
        )
        assert batch.classes.dtype == np.int64 and batch.classes.tolist() == [0, 1, 2]
        assert batch.frames.dtype == np.float64 and batch.frames.tolist() == [3.0, 4.0, 5.0]
        assert batch.labels.dtype == np.int64 and batch.labels.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "classes, labels",
        [([1.7, 2.2, 0.9], [1]), ([1, 2, 0], [1.5])],
        ids=["float-classes", "float-label"],
    )
    def test_pad_batch_never_truncates_to_integers(self, classes, labels):
        item = DurationFeatureSequence(np.array(classes), np.array([3.0, 4.0, 5.0]), 5)
        with pytest.raises(ShapeMismatchError, match="integer"):
            pad_batch([item], labels)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_grid_views_equal_row_by_row_padding(self, data):
        sizes = data.draw(st.lists(st.integers(1, 40), max_size=8))
        sizes.insert(data.draw(st.integers(0, len(sizes))), 1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        items = [random_sequence(rng, 7, n) for n in sizes]
        labels = rng.integers(0, 4, size=len(items)).tolist() if data.draw(st.booleans()) else None
        batch = pad_batch(items, labels)
        for view, want in zip((batch.class_idx, batch.lengths, batch.mask), row_padded(items)):
            assert view.dtype == want.dtype and np.array_equal(view, want)
        assert batch.mask.sum() == batch.classes.size
        # each row's mask prefix, read back from the grid, rebuilds the batch
        rows = [
            DurationFeatureSequence(batch.class_idx[i, :k], batch.lengths[i, :k], 7)
            for i, k in enumerate(batch.mask.sum(axis=1).astype(int))
        ]
        again = pad_batch(rows, batch.labels)
        for name in ("classes", "frames", "offsets"):
            assert getattr(again, name).dtype == getattr(batch, name).dtype
            assert np.array_equal(getattr(again, name), getattr(batch, name)), name
        if labels is None:
            assert again.labels is None
        else:
            assert np.array_equal(again.labels, batch.labels)

    def test_no_program_path_builds_the_grid(self, monkeypatch):
        def grid_read(self):
            raise AssertionError("the (B, T) grid was built")

        for view in ("class_idx", "lengths", "mask"):
            monkeypatch.setattr(Batch, view, property(grid_read))
        synth = SynthConfig(
            n_speakers=3,
            utts_per_speaker=4,
            phones_per_utt=(10, 20),
            population_log_mean=np.full(5, np.log(10.0)),
            sigma_speaker=0.3,
            sigma_token=0.3,
            seed=1,
        )
        profiles = sample_speakers(synth, np.random.default_rng([1, 0]))
        corpus = generate_corpus(profiles, synth, np.random.default_rng([1, 1]))
        cfg = tiny_gradcheck_config(n_speakers=3)
        hyper = TrainConfig(epochs=1, batch_size=4, chunk_min=4, chunk_max=12)
        result = train(corpus, cfg, hyper)
        assert len(result.epoch_losses) == 1
        scores = score_trials_embedding(result.params, corpus, build_trials(corpus, 1, 1, 0))
        assert scores.scores.size > 0 and np.all(np.isfinite(scores.scores))
        assert gradient_check(cfg, n_draws=1).passed


class TestConfigAndInit:
    def test_same_seed_bit_identical_params(self):
        cfg = tiny_gradcheck_config()
        a = init_model(cfg, np.random.default_rng(5))
        b = init_model(cfg, np.random.default_rng(5))
        assert a.tensors.keys() == b.tensors.keys()
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_classifier_shape(self):
        cfg = ModelConfig(n_classes=10, n_speakers=40, proj_dim=8,
                          encoder_channels=8, embed_dim=128, attention_hidden=4)
        params = init_model(cfg, np.random.default_rng(0))
        assert params.tensors["cls_w"].shape == (128, 40)
        assert params.tensors["proj"].shape == (10, 8)

    def test_default_dimensions(self):
        cfg = ModelConfig(n_classes=336, n_speakers=5)
        assert cfg.embed_dim == 128
        assert cfg.proj_dim == 128
        assert cfg.encoder_channels == 128
        assert cfg.dilations == (1, 2, 3)
        assert cfg.attention_hidden == 64

    def test_forward_finite_on_random_batches(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(1))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            emb, logits = forward(params, random_batch(rng, cfg, [4, 9, 17]))
            assert np.all(np.isfinite(emb))
            assert np.all(np.isfinite(logits))

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=4, n_speakers=2, kernel_width=2)

    @pytest.mark.parametrize(
        "changes",
        [
            {"dilations": (1.5, 2, 3)},
            {"n_classes": 4.0},
            {"dilations": "123"},
            {"dilations": ()},
            {"n_classes": True},
        ],
        ids=["float-dilation", "float-dim", "string-dilations", "no-dilations", "bool-dim"],
    )
    def test_rejects_non_integer_dimensions_and_empty_dilations(self, changes):
        with pytest.raises(ConfigError):
            ModelConfig(**{"n_classes": 4, "n_speakers": 2, **changes})

    def test_numpy_integers_become_plain_ints_and_blocks_follow_dilations(self):
        cfg = ModelConfig(n_classes=np.int64(4), n_speakers=2, dilations=np.array([1, 4]))
        assert type(cfg.n_classes) is int and cfg.dilations == (1, 4)
        assert all(type(d) is int for d in cfg.dilations)
        assert cfg.n_blocks == 2
        assert "n_blocks" not in {f.name for f in dataclasses.fields(ModelConfig)}

    def test_projection_distinct_from_channels_is_supported(self):
        cfg = ModelConfig(n_classes=6, n_speakers=3, proj_dim=5,
                          encoder_channels=7, embed_dim=4, attention_hidden=3)
        params = init_model(cfg, np.random.default_rng(2))
        assert params.tensors["block0_res"].shape == (5, 7)
        rng = np.random.default_rng(3)
        emb, logits = forward(params, random_batch(rng, cfg, [5, 8]))
        assert emb.shape == (2, 4)
        assert logits.shape == (2, 3)


class TestForward:
    def test_output_shapes(self):
        cfg = ModelConfig(n_classes=20, n_speakers=7, proj_dim=16,
                          encoder_channels=16, embed_dim=128, attention_hidden=8)
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = pad_batch([random_sequence(rng, 20, 32)])
        emb, logits = forward(params, batch)
        assert emb.shape == (1, 128)
        assert logits.shape == (1, 7)

    def test_duplicated_item_gives_identical_rows(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        seq = random_sequence(rng, cfg.n_classes, 15)
        emb, _ = forward(params, pad_batch([seq, seq]))
        assert np.array_equal(emb[0], emb[1])

    def test_padding_invariance(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = int(rng.integers(3, 40))
            seq = random_sequence(rng, cfg.n_classes, t)
            alone = pad_batch([seq])
            padded = pad_batch([seq, random_sequence(rng, cfg.n_classes, t + 10)])
            emb_alone, _ = forward(params, alone)
            emb_padded, _ = forward(params, padded)
            assert np.abs(emb_alone[0] - emb_padded[0]).max() <= 1e-6

    def test_attention_weights_sum_to_one_over_real_positions(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        batch = random_batch(rng, cfg, [4, 11, 30])
        cache = forward_with_cache(params, batch)
        sums = np.bincount(cache.layout.items, weights=cache.attention)
        assert np.abs(sums - 1.0).max() <= 1e-9
        # one weight per real step: no padded step holds a weight
        assert cache.attention.shape == batch.classes.shape

    @pytest.mark.parametrize(
        "classes, labels",
        [([5], [0]), ([-1], [0]), ([0], [3]), ([0], [-1])],
        ids=["class-at-n", "class-below-0", "label-at-s", "label-below-0"],
    )
    def test_class_or_label_out_of_range_rejected(self, classes, labels):
        cfg = tiny_gradcheck_config()  # 5 classes, 3 speakers
        params = init_model(cfg, np.random.default_rng(0))
        bad = Batch(
            classes=np.array(classes),
            frames=np.array([3.0]),
            offsets=np.array([0, 1]),
            labels=np.array(labels),
        )
        with pytest.raises(ShapeMismatchError):
            forward(params, bad)

    @pytest.mark.parametrize("array, value", [("classes", 99), ("labels", 3), ("labels", -1)])
    @pytest.mark.parametrize(
        "run", [forward, forward_with_cache, loss_and_grad], ids=lambda f: f.__name__
    )
    def test_values_changed_in_place_after_a_pass_are_checked_again(self, run, array, value):
        cfg = tiny_gradcheck_config()  # 5 classes, 3 speakers
        params = init_model(cfg, np.random.default_rng(0))
        batch = random_batch(np.random.default_rng(1), cfg, [4, 6])
        run(params, batch)
        getattr(batch, array)[1] = value
        with pytest.raises(ShapeMismatchError, match="outside the configured"):
            run(params, batch)


    @pytest.mark.parametrize("value", [-3.0, 0.0, 0.5, np.nan, np.inf])
    @pytest.mark.parametrize(
        "run", [forward, forward_with_cache, loss_and_grad], ids=lambda f: f.__name__
    )
    def test_frame_counts_below_1_or_not_finite_rejected(self, run, value):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        fresh = Batch(
            classes=np.array([0, 1, 2]),
            frames=np.array([value, 4.0, 5.0]),
            offsets=np.array([0, 1, 3]),
            labels=np.array([0, 1]),
        )
        with pytest.raises(ShapeMismatchError, match="frame counts must be finite and >= 1"):
            run(params, fresh)
        batch = random_batch(np.random.default_rng(1), cfg, [4, 6])
        run(params, batch)
        batch.frames[5] = value
        with pytest.raises(ShapeMismatchError, match="frame counts must be finite and >= 1"):
            run(params, batch)

    @pytest.mark.parametrize("value", [-3.0, np.nan])
    def test_embed_sequences_refuses_bad_frame_counts(self, value):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        good = random_sequence(np.random.default_rng(1), cfg.n_classes, 6)
        bad = random_sequence(np.random.default_rng(2), cfg.n_classes, 6)
        bad.lengths[3] = value
        with pytest.raises(ShapeMismatchError, match="frame counts must be finite and >= 1"):
            embed_sequences(params, [good, bad])


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_s(self):
        cfg = tiny_gradcheck_config(n_speakers=7)
        params = init_model(cfg, np.random.default_rng(0))
        params.tensors["cls_w"][:] = 0.0
        params.tensors["cls_b"][:] = 0.0
        rng = np.random.default_rng(1)
        batch = random_batch(rng, cfg, [6, 10])
        loss, _ = loss_and_grad(params, batch)
        assert loss == pytest.approx(np.log(7.0), abs=1e-12)

    def test_softmax_probabilities_sum_to_one(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        batch = random_batch(rng, cfg, [8, 12, 5])
        cache = forward_with_cache(params, batch)
        z = cache.logits - cache.logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_gradient_matches_finite_differences(self):
        report = gradient_check(tiny_gradcheck_config(), seed=7, n_draws=4)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_gradient_matches_finite_differences_at_kernel_width_1(self):
        cfg = dataclasses.replace(tiny_gradcheck_config(), kernel_width=1)
        report = gradient_check(cfg, seed=7, n_draws=4)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    @pytest.mark.parametrize("options", [{"seed": True}, {"seed": 1.0}, {"n_draws": 2.0}])
    def test_gradient_check_takes_integer_arguments_only(self, options):
        with pytest.raises(ConfigError, match="must be an integer"):
            gradient_check(tiny_gradcheck_config(), **options)

    def test_gradient_check_builds_one_layout_per_pass_not_per_forward(self, monkeypatch):
        built = []
        of = PackedLayout.of

        def counted(batch, gap):
            built.append(gap)
            return of(batch, gap)

        monkeypatch.setattr(PackedLayout, "of", staticmethod(counted))
        # 2 x 252 coordinates, each forwarded twice, on two layouts per draw
        report = gradient_check(tiny_gradcheck_config(), n_draws=2)
        assert report.passed and report.n_parameters == 252
        assert 1 <= len(built) <= 4

    def test_corrupted_gradient_fails_the_check(self, monkeypatch):
        def biased(params, batch):
            loss, grads = loss_and_grad(params, batch)
            return loss, grads | {"emb_w": grads["emb_w"] + 1.0}

        monkeypatch.setattr("durasv.model.loss_and_grad", biased)
        report = gradient_check(tiny_gradcheck_config(), seed=7, n_draws=1)
        assert report.passed is False

    def test_small_step_descends(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        batch = random_batch(rng, cfg, [10, 14, 7, 9])
        loss, grads = loss_and_grad(params, batch)
        stepped = params.copy()
        for name in stepped.tensors:
            stepped.tensors[name] -= 1e-3 * grads[name]
        assert loss_and_grad(stepped, batch)[0] < loss

    def test_grads_cover_every_tensor(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        _, grads = loss_and_grad(params, random_batch(rng, cfg, [5, 6]))
        assert list(grads.keys()) == list(params.tensors.keys())
        for name, g in grads.items():
            assert g.shape == params.tensors[name].shape
            assert np.all(np.isfinite(g))

    def test_loss_requires_labels(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = pad_batch([random_sequence(rng, cfg.n_classes, 5)])
        with pytest.raises(ShapeMismatchError):
            loss_and_grad(params, batch)


def gradcheck_draw(config, seed, draw):
    """The jittered params and the batch of ``gradient_check``'s draw ``draw``."""
    rng = np.random.default_rng([seed, draw])
    params = init_model(config, rng)
    for v in params.tensors.values():
        v += 0.05 * rng.standard_normal(v.shape)
    return params, model._random_batch(config, rng)


def full_forward_gradient_check(config, seed, n_draws):
    """``gradient_check`` with every perturbed loss from a pass that starts
    at the projection: the reference for the passes that resume later."""
    step = model._GRADCHECK_STEP
    errors = []
    for draw in range(n_draws):
        params, batch = gradcheck_draw(config, seed, draw)
        layout = model._layout(config, batch)
        analytic = model._pack(loss_and_grad(params, batch)[1])
        numeric = np.empty_like(analytic)
        pos = 0
        for tensor in params.tensors.values():
            flat = tensor.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = model._loss(params, layout, batch.labels, 0)
                flat[j] = orig - step
                down = model._loss(params, layout, batch.labels, 0)
                flat[j] = orig
                numeric[pos] = (up - down) / (2.0 * step)
                pos += 1
        rel = np.abs(analytic - numeric) / np.maximum(1e-5, np.abs(analytic) + np.abs(numeric))
        errors.append((float(rel.max()), float(rel.mean())))
    return model.GradCheckReport(
        max(e[0] for e in errors), float(np.mean([e[1] for e in errors])), n_draws, analytic.size
    )


class TestResumedDifferences:
    """``gradient_check``'s perturbed passes start at the first stage that
    reads the perturbed tensor, and give a full pass's loss to the bit."""

    CONFIGS = {
        "tiny": tiny_gradcheck_config(),
        # reach 0: no gap rows
        "kernel-width-1": dataclasses.replace(tiny_gradcheck_config(), kernel_width=1),
        # a residual projection, block0_res, read by block 0's stage
        "proj-dim-3": dataclasses.replace(tiny_gradcheck_config(), proj_dim=3),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_resumed_loss_equals_full_forward_loss(self, name):
        cfg = self.CONFIGS[name]
        params, batch = gradcheck_draw(cfg, 5, 0)
        layout = model._layout(cfg, batch)
        full = params.copy()
        clean = model._loss(full, layout, batch.labels, 0)
        starts = set()
        for tensor, values in params.tensors.items():
            start = model._first_reader(tensor, cfg.n_blocks)
            starts.add(start)
            model._forward(params, layout, params._work)
            flat, full_flat = values.reshape(-1), full.tensors[tensor].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                for value in (orig + model._GRADCHECK_STEP, orig - model._GRADCHECK_STEP):
                    flat[j] = full_flat[j] = value
                    resumed = model._loss(params, layout, batch.labels, start)
                    assert resumed == model._loss(full, layout, batch.labels, 0), (tensor, j)
                flat[j] = full_flat[j] = orig
            # the last perturbed pass read the tensor; att_v0 shifts every
            # attention score alike, which the softmax can ignore to the bit
            assert resumed != clean or tensor == "att_v0", tensor
        assert starts == set(range(cfg.n_blocks + 3))

    @pytest.mark.parametrize("seed, n_draws", [(0, 2), (7, 4)])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_report_equals_full_forward_report(self, name, seed, n_draws):
        cfg = self.CONFIGS[name]
        want = full_forward_gradient_check(cfg, seed, n_draws)
        assert gradient_check(cfg, seed=seed, n_draws=n_draws) == want

    def test_few_passes_start_at_the_projection(self, monkeypatch):
        starts = []
        encode = model._encode

        def counted(params, layout, work, start=0):
            starts.append(start)
            return encode(params, layout, work, start)

        monkeypatch.setattr(model, "_encode", counted)
        gradient_check(tiny_gradcheck_config(), n_draws=2)
        # per draw, loss_and_grad, one clean pass for each of the 15 tensors
        # and 2 x 252 perturbed passes, of which only proj's 2 x 20 start at
        # the projection: 56, where a full pass per difference made 505
        assert len(starts) == 2 * (1 + 15 + 2 * 252)
        assert starts.count(0) <= 2 * 56


class TestCrossItemIndependence:
    """Each item's outputs and gradients depend on that item alone."""

    CONFIGS = {
        # wider reach than the first block's, and a residual projection
        "dilations-1-4": ModelConfig(
            n_classes=7, n_speakers=3, proj_dim=5, encoder_channels=6,
            dilations=(1, 4), embed_dim=4, attention_hidden=3,
        ),
        "tiny": tiny_gradcheck_config(),
        # reach 0: items are packed edge to edge with no gap rows
        "kernel-width-1": ModelConfig(
            n_classes=7, n_speakers=3, proj_dim=5, encoder_channels=6,
            dilations=(1, 2), kernel_width=1, embed_dim=4, attention_hidden=3,
        ),
    }

    @staticmethod
    def make_case(name, seed):
        cfg = TestCrossItemIndependence.CONFIGS[name]
        rng = np.random.default_rng([seed, 31])
        params = init_model(cfg, rng)
        # biases start at zero; jitter so padding or a neighbour would show
        for v in params.tensors.values():
            v += 0.05 * rng.standard_normal(v.shape)
        sizes = rng.permutation([1, *rng.integers(1, 41, size=int(rng.integers(1, 6)))])
        items = [random_sequence(rng, cfg.n_classes, int(t)) for t in sizes]
        labels = rng.integers(0, cfg.n_speakers, size=len(items)).tolist()
        return params, items, labels

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_batch_gradient_is_mean_of_item_gradients(self, name, seed):
        params, items, labels = self.make_case(name, seed)
        loss, grads = loss_and_grad(params, pad_batch(items, labels))
        singles = [loss_and_grad(params, pad_batch([it], [lab])) for it, lab in zip(items, labels)]
        ref_loss = np.mean([s[0] for s in singles])
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        refs = {t: np.mean([s[1][t] for s in singles], axis=0) for t in grads}
        largest = max(np.abs(r).max() for r in refs.values())
        for tensor, g in grads.items():
            # att_v0 shifts every attention score alike, which the softmax
            # ignores: its gradient is 0 up to rounding, so it is judged
            # against the largest gradient entry
            scale = largest if tensor == "att_v0" else np.abs(refs[tensor]).max()
            assert np.abs(g - refs[tensor]).max() <= 1e-10 * scale, tensor

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_batch_embeddings_equal_item_embeddings(self, name, seed):
        params, items, _ = self.make_case(name, seed)
        emb, _ = forward(params, pad_batch(items))
        for i, it in enumerate(items):
            alone, _ = forward(params, pad_batch([it]))
            assert np.abs(emb[i] - alone[0]).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["gradcheck-draw", *sorted(CONFIGS)])
    def test_gradient_check_loss_is_the_training_loss(self, name, seed):
        # gradient_check differences model._loss; training minimizes the loss
        # loss_and_grad returns, so the two must be one function, to the bit
        if name == "gradcheck-draw":
            params, batch = gradcheck_draw(tiny_gradcheck_config(), seed, 0)
        else:
            params, items, labels = self.make_case(name, seed)
            batch = pad_batch(items, labels)
        loss = model._loss(params, model._layout(params.config, batch), batch.labels, 0)
        assert loss == loss_and_grad(params, batch)[0]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_loss_and_grad_equal_recorded_values(self, name):
        # recorded from the forward pass before it was split into an
        # encoder and a pooling stage, with the make_case draw at seed 0;
        # the split must leave training's arithmetic as it was
        with np.load(Path(__file__).parent / "data" / "loss_and_grad.npz") as data:
            recorded = {k[len(name) + 1 :]: data[k] for k in data.files if k.startswith(f"{name}.")}
        params, items, labels = self.make_case(name, 0)
        loss, grads = loss_and_grad(params, pad_batch(items, labels))
        assert recorded.keys() == {"loss", *grads}
        assert np.array_equal(loss, recorded["loss"])
        for tensor, g in grads.items():
            assert np.array_equal(g, recorded[tensor]), tensor


class TestWorkBuffers:
    """Reused work buffers carry nothing from one call, or one scoring group, to the next."""

    @staticmethod
    def jittered_params(name, rng):
        params = init_model(TestCrossItemIndependence.CONFIGS[name], rng)
        for v in params.tensors.values():
            v += 0.05 * rng.standard_normal(v.shape)
        return params

    @pytest.mark.parametrize("name", sorted(TestCrossItemIndependence.CONFIGS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_call_equals_the_call_on_a_fresh_copy(self, name, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = self.jittered_params(name, rng)
        cfg = params.config
        batches = data.draw(
            st.lists(st.lists(st.integers(1, 40), min_size=1, max_size=6), min_size=2, max_size=4),
            label="batch sizes",
        )
        for sizes in batches:
            sizes.insert(data.draw(st.integers(0, len(sizes)), label="one-phone item"), 1)
        # batches grow to the largest, then shrink back to the smallest
        batches.sort(key=sum)
        for sizes in batches + batches[-2::-1]:
            items = [random_sequence(rng, cfg.n_classes, n) for n in sizes]
            batch = pad_batch(items, rng.integers(0, cfg.n_speakers, size=len(items)).tolist())
            loss, grads = loss_and_grad(params, batch)
            want_loss, want_grads = loss_and_grad(params.copy(), batch)
            assert loss == want_loss
            for tensor, g in grads.items():
                assert np.array_equal(g, want_grads[tensor]), tensor
            for got, want in zip(forward(params, batch), forward(params.copy(), batch)):
                assert np.array_equal(got, want)
            # a one-phone item is a scoring group of its own, so the
            # groups of one call grow and shrink too
            alone = [forward(params.copy(), pad_batch([it]))[0] for it in items]
            assert np.array_equal(embed_sequences(params, items), np.concatenate(alone))

    @pytest.mark.parametrize("name", sorted(TestCrossItemIndependence.CONFIGS))
    def test_forward_with_cache_returns_arrays_the_caller_owns(self, name):
        rng = np.random.default_rng(17)
        params = self.jittered_params(name, rng)
        cfg = params.config
        cache = forward_with_cache(params, random_batch(rng, cfg, [1, 12, 30]))

        def arrays():
            return [*cache.block_inputs, *cache.block_acts, cache.encoded, cache.att_hidden]

        before = [a.copy() for a in arrays()]
        # smaller batches first: a grown buffer would be a new array
        for sizes in ([2, 1], [30, 12, 1], [40, 25, 1, 33]):
            batch = random_batch(rng, cfg, sizes)
            loss_and_grad(params, batch)
            forward(params, batch)
            embed_sequences(params, [random_sequence(rng, cfg.n_classes, n) for n in sizes])
        for got, want in zip(arrays(), before, strict=True):
            assert np.array_equal(got, want)

    def test_second_training_step_allocates_at_most_half_the_first(self):
        # the train-acc model and a batch of 32 chunks of 32 to 256 phones
        cfg = ModelConfig(n_classes=96, n_speakers=20)
        rng = np.random.default_rng(3)
        params = init_model(cfg, rng)
        batch = random_batch(rng, cfg, rng.integers(32, 257, size=32))
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                loss_and_grad(params, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.5 * peaks[0], peaks
