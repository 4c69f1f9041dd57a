"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them). The quantitative targets run on synthetic corpora at desk scale.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from durasv.alignment import AlignedUtterance, PhonemeInventory
from durasv.cli import main
from durasv.embeddings import score_trials_embedding
from durasv.evaluation import (
    ScoreSet,
    build_trials,
    compute_eer,
    eer_confidence_interval,
)
from durasv.features import make_chunks, sequence_from_utterances
from durasv.metric import duration_ratio_distance, score_trials_metric
from durasv.model import (
    ModelConfig,
    forward,
    gradient_check,
    init_model,
    pad_batch,
    tiny_gradcheck_config,
)
from durasv.synth import SynthConfig, generate_corpus, sample_speakers
from durasv.training import TrainConfig, train

# desk-scale corpus for the separability criterion: many phoneme classes
# and short utterances keep per-class duration evidence sparse, which is
# where the trained encoder earns its advantage over the plain metric
SEP_N_CLASSES = 96
SEP_PHONES_PER_UTT = (10, 25)
SEP_SIGMA_TOKEN = 0.35
SEP_SIGMA_SPEAKER = 0.2
SEP_SEED = 11
TRIAL_SEED = 101
TRAIN_EPOCHS = 30


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {num} PASS: {description}", flush=True)


def synth_corpus(n_classes, sigma_speaker, sigma_token, phones, n_speakers, utts, seed):
    cfg = SynthConfig(
        n_speakers=n_speakers,
        utts_per_speaker=utts,
        phones_per_utt=phones,
        population_log_mean=np.full(n_classes, np.log(10.0)),
        sigma_speaker=sigma_speaker,
        sigma_token=sigma_token,
        seed=seed,
    )
    profiles = sample_speakers(cfg, np.random.default_rng([seed, 0]))
    return generate_corpus(profiles, cfg, np.random.default_rng([seed, 1]))


@pytest.fixture(scope="module")
def separable_corpus():
    return synth_corpus(
        SEP_N_CLASSES, SEP_SIGMA_SPEAKER, SEP_SIGMA_TOKEN, SEP_PHONES_PER_UTT,
        n_speakers=20, utts=50, seed=SEP_SEED,
    )


@pytest.fixture(scope="module")
def trained_model(separable_corpus):
    config = ModelConfig(n_classes=SEP_N_CLASSES, n_speakers=20)
    return train(separable_corpus, config, TrainConfig(epochs=TRAIN_EPOCHS, seed=5))


def test_c1_raw_feature_rows():
    with criterion(1, "duration feature rows: one nonzero per row, frame sum exact"):
        rng = np.random.default_rng(2024)
        inv = PhonemeInventory(tuple(f"P{i}" for i in range(17)))
        total_rows = 0
        for u in range(1000):
            k = int(rng.integers(1, 25))
            phones = [
                (int(rng.integers(0, 17)), int(rng.integers(1, 80))) for _ in range(k)
            ]
            utt = AlignedUtterance(f"u{u}", "s", phones)
            dense = sequence_from_utterances([utt], inv.size).to_dense()
            assert np.all((dense != 0).sum(axis=1) == 1)
            for row, (class_index, frames) in zip(dense, phones):
                assert row[class_index] == frames
            assert dense.sum() == sum(frames for _, frames in phones)
            total_rows += k
        assert total_rows >= 1000


def test_c2_ratio_metric_identities():
    with criterion(2, "ratio metric: symmetry, self-distance 0, range, tempo identity"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(0.5, 60.0, size=int(rng.integers(1, 50)))
            b = a * np.exp(rng.normal(0, 0.7, size=a.size))
            d_ab = duration_ratio_distance(a, b)
            d_ba = duration_ratio_distance(b, a)
            assert d_ab == d_ba
            assert 0.0 <= d_ab < 1.0
            assert duration_ratio_distance(a, a) == 0.0
        base = rng.uniform(1.0, 50.0, size=128)
        for c in (0.5, 0.9, 2.0):
            got = duration_ratio_distance(base, c * base)
            assert abs(got - (1.0 - min(c, 1.0 / c))) <= 1e-12


def test_c3_eer_oracle_equivalence():
    with criterion(3, "EER matches brute-force sweep on 200 random score sets"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n_tar = int(rng.integers(1, 500))
            n_non = int(rng.integers(1, 500))
            sep = float(rng.uniform(0, 3))
            tar = rng.normal(sep, 1.0, n_tar)
            non = rng.normal(0.0, 1.0, n_non)
            scores = np.concatenate([tar, non])
            labels = np.concatenate([np.ones(n_tar, bool), np.zeros(n_non, bool)])
            s = ScoreSet(scores, labels, "larger-is-similar")
            eer, _ = compute_eer(s)

            # independent exhaustive sweep
            cand = np.concatenate([scores, [scores.max() + 1.0]])
            far = (non[None, :] >= cand[:, None]).mean(axis=1)
            frr = (tar[None, :] < cand[:, None]).mean(axis=1)
            best = int(np.argmin(np.abs(far - frr)))
            oracle = (far[best] + frr[best]) / 2.0
            step = 1.0 / min(n_tar, n_non)
            assert abs(eer - oracle) <= step + 1e-12

            # monotone transform leaves the EER unchanged exactly
            warped = ScoreSet(np.tanh(scores) * 3.0 + 1.0, labels, s.polarity)
            assert compute_eer(warped)[0] == eer
            # polarity flip leaves the EER unchanged exactly
            flipped = ScoreSet(-scores, labels, "smaller-is-similar")
            assert compute_eer(flipped)[0] == eer


def test_c4_gradient_exactness():
    with criterion(4, "analytic gradients match finite differences (tiny config)"):
        report = gradient_check(tiny_gradcheck_config(), seed=123, n_draws=20)
        assert report.max_rel_error < 1e-4, f"max rel error {report.max_rel_error:.3e}"


def _filler(rng, length):
    from durasv.features import DurationFeatureSequence

    return DurationFeatureSequence(
        rng.integers(0, 48, size=length),
        rng.integers(1, 40, size=length).astype(np.float64),
        48,
    )


def test_c5_padding_invariance():
    with criterion(5, "right-padding never moves an embedding by more than 1e-6"):
        config = ModelConfig(n_classes=48, n_speakers=20)
        params = init_model(config, np.random.default_rng(31))
        rng = np.random.default_rng(32)
        inv = PhonemeInventory(tuple(f"P{i}" for i in range(48)))
        utts = []
        for i in range(60):
            k = int(rng.integers(40, 120))
            phones = [
                (int(rng.integers(0, 48)), int(rng.integers(1, 40))) for _ in range(k)
            ]
            utts.append(AlignedUtterance(f"u{i}", "s", phones))
        chunks = []
        while len(chunks) < 100:
            chunks.extend(make_chunks(utts, inv, rng))
        chunks = chunks[:100]
        for chunk in chunks:
            alone = pad_batch([chunk.rows])
            padded = pad_batch([chunk.rows, _filler(rng, len(chunk) + 10)])
            emb_alone, _ = forward(params, alone)
            emb_padded, _ = forward(params, padded)
            assert np.abs(emb_alone[0] - emb_padded[0]).max() <= 1e-6


def test_c6_chunk_distribution():
    with criterion(6, "chunk lengths uniform on [32,256] (chi-square), shifts bounded"):
        rng = np.random.default_rng(404)
        utts = []
        for i in range(4000):
            frames = rng.integers(1, 30, size=600)
            phones = np.stack([np.zeros_like(frames), frames], axis=1)
            utts.append(AlignedUtterance(f"u{i}", "s", phones))
        inv = PhonemeInventory(("P0",))
        chunks = make_chunks(utts, inv, np.random.default_rng(405))
        assert len(chunks) >= 10_000
        lengths = np.array([len(c) for c in chunks])
        assert lengths.min() >= 32 and lengths.max() <= 256
        for c in chunks:
            assert 0 <= c.shift <= min(c.first_utt_len, len(c))
        observed = np.bincount(lengths, minlength=257)[32:257]
        result = stats.chisquare(observed)
        assert result.pvalue > 0.01, f"chi-square p={result.pvalue:.5f}"


def test_c7_chance_level_control():
    with criterion(7, "zero speaker spread: metric and untrained embedder at 50%+-5%"):
        corpus = synth_corpus(
            48, 0.0, SEP_SIGMA_TOKEN, (20, 50), n_speakers=20, utts=60, seed=21
        )
        trials = build_trials(corpus, 1, 1, seed=33, max_nontarget_per_speaker=60)
        assert len(trials.trials) >= 2000
        eer_metric, _ = compute_eer(score_trials_metric(corpus, trials))
        params = init_model(
            ModelConfig(n_classes=48, n_speakers=20), np.random.default_rng(3)
        )
        eer_embed, _ = compute_eer(score_trials_embedding(params, corpus, trials))
        assert 0.45 <= eer_metric <= 0.55, f"metric EER {eer_metric:.4f}"
        assert 0.45 <= eer_embed <= 0.55, f"untrained embedder EER {eer_embed:.4f}"


def test_c8_separability_and_trend(separable_corpus, trained_model):
    with criterion(8, "metric EER falls 1->4->8; trained embedder beats it at 8"):
        corpus = separable_corpus
        metric_eer = {}
        embed_eer = {}
        for n in (1, 4, 8):
            trials = build_trials(
                corpus, n, n, seed=TRIAL_SEED, max_nontarget_per_speaker=20
            )
            metric_eer[n], _ = compute_eer(score_trials_metric(corpus, trials))
            embed_eer[n], _ = compute_eer(
                score_trials_embedding(trained_model.params, corpus, trials)
            )
        print(
            f"  metric 1/4/8: {metric_eer[1]:.3f}/{metric_eer[4]:.3f}/{metric_eer[8]:.3f} | "
            f"embedder 1/4/8: {embed_eer[1]:.3f}/{embed_eer[4]:.3f}/{embed_eer[8]:.3f}",
            flush=True,
        )
        # (a) more enrollment/trial speech makes the metric attack strictly better
        assert metric_eer[1] > metric_eer[4] > metric_eer[8]
        # trained embedder shows the same monotone trend
        assert embed_eer[1] > embed_eer[4] > embed_eer[8]
        # (b) the trained embedder beats the metric at the 8-utterance setup
        assert embed_eer[8] < metric_eer[8]
        # (c) absolute target for the trained embedder
        assert embed_eer[8] < 0.20
        # training made real progress
        losses = trained_model.epoch_losses
        assert losses[-1] < 0.5 * losses[0]


def test_c9_pipeline_determinism(tmp_path):
    with criterion(9, "two seeded end-to-end pipeline runs are byte-identical"):
        config = {
            "n_speakers": 6,
            "utts_per_speaker": 14,
            "phones_per_utt": [15, 30],
            "n_classes": 12,
            "population_log_mean": 2.3,
            "sigma_speaker": 0.3,
            "sigma_token": 0.3,
            "seed": 77,
        }
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(config))

        outputs = {}
        for run in ("one", "two"):
            base = tmp_path / run
            corpus_dir = base / "corpus"
            assert main(["synth", "--config", str(cfg_path), "--out", str(corpus_dir)]) == 0
            align = str(corpus_dir / "alignment.txt")
            inventory = str(corpus_dir / "inventory.txt")
            model = base / "model.bin"
            assert main([
                "train", "--align", align, "--inventory", inventory,
                "--out", str(model), "--epochs", "2", "--seed", "13",
                "--proj-dim", "16", "--channels", "16", "--embed-dim", "16",
                "--attention-hidden", "8", "--batch-size", "16",
            ]) == 0
            trials = base / "trials.txt"
            assert main([
                "trials", "--align", align, "--inventory", inventory,
                "--n-enroll", "2", "--n-trial", "2", "--seed", "3",
                "--out", str(trials),
            ]) == 0
            metric_scores = base / "metric.txt"
            embed_scores = base / "embed.txt"
            assert main([
                "score", "--align", align, "--inventory", inventory,
                "--trials", str(trials), "--model", "metric",
                "--out", str(metric_scores),
            ]) == 0
            assert main([
                "score", "--align", align, "--inventory", inventory,
                "--trials", str(trials), "--model", str(model),
                "--out", str(embed_scores),
            ]) == 0
            report = base / "report.json"
            assert main([
                "eval", str(metric_scores), str(embed_scores), "--out", str(report),
            ]) == 0
            outputs[run] = {
                "model": model.read_bytes(),
                "trials": trials.read_bytes(),
                "metric": metric_scores.read_bytes(),
                "embed": embed_scores.read_bytes(),
                "report": report.read_bytes(),
            }
        for key in outputs["one"]:
            assert outputs["one"][key] == outputs["two"][key], f"{key} differs"


def test_c10_confidence_interval_formula():
    with criterion(10, "95% CI halfwidth matches direct formula evaluation"):
        assert abs(eer_confidence_interval(0.1, 1000) - 0.01860) <= 1e-5
        assert abs(eer_confidence_interval(0.5, 100) - 0.098) <= 1e-5
        assert eer_confidence_interval(0.0, 123) == 0.0
