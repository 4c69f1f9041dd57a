import dataclasses

import numpy as np
import pytest

from durasv.errors import ShapeMismatchError
from durasv.features import DurationFeatureSequence
from durasv.model import (
    Batch,
    ModelConfig,
    forward,
    forward_with_cache,
    gradient_check,
    init_model,
    loss_and_grad,
    loss_value,
    pad_batch,
    tiny_gradcheck_config,
)


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

    def test_rejects_dilation_count_mismatch(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=4, n_speakers=2, n_blocks=2, dilations=(1, 2, 3))

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
        sums = cache.attention.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9
        assert np.all(cache.attention[batch.mask == 0.0] == 0.0)

    def test_class_index_out_of_range_rejected(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(0))
        bad = Batch(
            class_idx=np.array([[99]]),
            lengths=np.array([[3.0]]),
            mask=np.array([[1.0]]),
        )
        with pytest.raises(ShapeMismatchError):
            forward(params, bad)


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

    def test_corrupted_gradient_fails_the_check(self):
        report = gradient_check(tiny_gradcheck_config(), seed=7, n_draws=1, corrupt=True)
        assert not report.passed

    def test_small_step_descends(self):
        cfg = tiny_gradcheck_config()
        params = init_model(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        batch = random_batch(rng, cfg, [10, 14, 7, 9])
        loss, grads = loss_and_grad(params, batch)
        stepped = params.copy()
        for name in stepped.tensors:
            stepped.tensors[name] -= 1e-3 * grads[name]
        assert loss_value(stepped, batch) < loss

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


class TestCrossItemIndependence:
    """Each item's outputs and gradients depend on that item alone."""

    CONFIGS = {
        # wider reach than the first block's, and a residual projection
        "dilations-1-4": ModelConfig(
            n_classes=7, n_speakers=3, proj_dim=5, encoder_channels=6, n_blocks=2,
            dilations=(1, 4), embed_dim=4, attention_hidden=3,
        ),
        "tiny": tiny_gradcheck_config(),
        # reach 0: items are packed edge to edge with no gap rows
        "kernel-width-1": ModelConfig(
            n_classes=7, n_speakers=3, proj_dim=5, encoder_channels=6, n_blocks=2,
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
