import io
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import (
    load_inventory,
    parse_alignment,
    write_alignment,
)
from durasv.errors import ConfigError
from durasv.synth import (
    SynthConfig,
    generate_corpus,
    sample_speakers,
    synthetic_inventory,
    write_profiles,
)
from test_alignment import make_corpus


def config(**overrides):
    base = dict(
        n_speakers=5,
        utts_per_speaker=4,
        phones_per_utt=(10, 20),
        population_log_mean=np.full(6, np.log(12.0)),
        sigma_speaker=0.2,
        sigma_token=0.3,
        seed=99,
    )
    base.update(overrides)
    return SynthConfig(**base)


def reference_generate(profiles, cfg, rng):
    """The per-utterance generator ``generate_corpus`` must agree with."""
    lo, hi = cfg.phones_per_utt
    rows = []
    for profile, stream in zip(profiles, rng.spawn(len(profiles))):
        for j in range(cfg.utts_per_speaker):
            n_phones = int(stream.integers(lo, hi + 1))
            classes = stream.integers(0, cfg.n_classes, size=n_phones)
            log_durations = stream.normal(profile.log_mean[classes], profile.log_std[classes])
            lengths = np.maximum(1, np.round(np.exp(log_durations))).astype(np.int64)
            utt_id = f"{profile.speaker_id}-u{j:04d}"
            rows.append((profile.speaker_id, utt_id, np.stack([classes, lengths], axis=1)))
    return make_corpus(synthetic_inventory(cfg.n_classes), rows)


def outcome(make):
    """A corpus, or its error's message."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


class TestSampleSpeakers:
    def test_zero_spread_gives_identical_profiles(self):
        cfg = config(sigma_speaker=0.0)
        profiles = sample_speakers(cfg, np.random.default_rng(0))
        for p in profiles:
            assert np.array_equal(p.log_mean, profiles[0].log_mean)
            assert np.array_equal(p.log_mean, cfg.population_log_mean)

    def test_seed_determinism(self):
        cfg = config()
        a = sample_speakers(cfg, np.random.default_rng(4))
        b = sample_speakers(cfg, np.random.default_rng(4))
        for pa, pb in zip(a, b):
            assert pa.speaker_id == pb.speaker_id
            assert np.array_equal(pa.log_mean, pb.log_mean)

    def test_distinct_ids(self):
        cfg = config(n_speakers=20)
        profiles = sample_speakers(cfg, np.random.default_rng(0))
        assert len({p.speaker_id for p in profiles}) == 20


class TestGenerateCorpus:
    def test_all_lengths_at_least_one(self):
        # push log-means low so the clamp actually fires
        cfg = config(population_log_mean=np.full(4, np.log(1.1)), sigma_token=0.8)
        profiles = sample_speakers(cfg, np.random.default_rng(1))
        corpus = generate_corpus(profiles, cfg, np.random.default_rng(2))
        assert min(int(u.phones[:, 1].min()) for u in corpus.utterances) >= 1

    def test_counts_and_ranges(self):
        cfg = config()
        profiles = sample_speakers(cfg, np.random.default_rng(1))
        corpus = generate_corpus(profiles, cfg, np.random.default_rng(2))
        assert len(corpus) == cfg.n_speakers * cfg.utts_per_speaker
        for utt in corpus.utterances:
            assert 10 <= len(utt) <= 20

    def test_empirical_means_track_profiles(self):
        # one speaker, ~1e4 tokens per class: the law of large numbers
        # should pin empirical class means near exp(log_mean) within 5%
        cfg = config(
            n_speakers=1,
            utts_per_speaker=50,
            phones_per_utt=(800, 800),
            population_log_mean=np.full(4, np.log(12.0)),
            sigma_speaker=0.1,
            sigma_token=0.1,
        )
        profiles = sample_speakers(cfg, np.random.default_rng(3))
        corpus = generate_corpus(profiles, cfg, np.random.default_rng(4))
        sums = np.zeros(4)
        counts = np.zeros(4)
        for utt in corpus.utterances:
            for class_index, frames in utt.phones.tolist():
                sums[class_index] += frames
                counts[class_index] += 1
        assert counts.min() >= 5000
        empirical = sums / counts
        expected = np.exp(profiles[0].log_mean)
        assert np.all(np.abs(empirical / expected - 1.0) < 0.05)

    def test_round_trips_through_alignment_io(self):
        cfg = config()
        profiles = sample_speakers(cfg, np.random.default_rng(1))
        corpus = generate_corpus(profiles, cfg, np.random.default_rng(2))
        sink = io.StringIO()
        write_alignment(corpus, sink)
        inventory = load_inventory(iter(corpus.inventory.symbols))
        again = parse_alignment(io.StringIO(sink.getvalue()), inventory)
        assert again == corpus

    def test_generation_determinism(self):
        cfg = config()
        profiles = sample_speakers(cfg, np.random.default_rng(1))
        a = generate_corpus(profiles, cfg, np.random.default_rng(7))
        b = generate_corpus(profiles, cfg, np.random.default_rng(7))
        assert a == b


def test_normal_is_loc_plus_scale_times_standard_normal():
    """``generate_corpus`` draws ``standard_normal`` where the definition
    draws ``normal(loc, scale)``; the two agree only while numpy computes
    ``normal`` as ``loc + scale * standard_normal()``, to the bit."""
    shapes = np.random.default_rng(2024)
    for seed in range(200):
        loc = shapes.uniform(-40.0, 40.0, 1000)
        scale = shapes.uniform(1e-3, 10.0, 1000)
        drawn = np.random.default_rng(seed).normal(loc, scale)
        formula = loc + scale * np.random.default_rng(seed).standard_normal(1000)
        assert np.array_equal(drawn.view(np.uint64), formula.view(np.uint64)), (
            f"numpy {np.__version__}: Generator.normal(loc, scale) differs from"
            f" loc + scale * standard_normal() at seed {seed}, so generate_corpus"
            " no longer reproduces its corpora"
        )


class TestCorpusTable:
    def test_ingest_shaped_corpus_equals_the_per_utterance_definition(self):
        cfg = SynthConfig(
            n_speakers=4,
            utts_per_speaker=75,
            phones_per_utt=(10, 30),
            population_log_mean=np.full(336, np.log(10.0)),
            sigma_speaker=0.2,
            sigma_token=0.35,
            seed=7,
        )
        profiles = sample_speakers(cfg, np.random.default_rng([7, 0]))
        synthesized = generate_corpus(profiles, cfg, np.random.default_rng([7, 1]))
        assert len(synthesized) == 300 and synthesized.phones[:, 0].max() >= 300
        assert synthesized == reference_generate(profiles, cfg, np.random.default_rng([7, 1]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(0, 8),
        st.integers(0, 2**16),
    )
    def test_synthesized_parsed_and_row_built_tables_agree(
        self, n_speakers, utts, lo, extra, seed
    ):
        cfg = config(n_speakers=n_speakers, utts_per_speaker=utts, phones_per_utt=(lo, lo + extra))
        profiles = sample_speakers(cfg, np.random.default_rng([seed, 0]))
        synthesized = generate_corpus(profiles, cfg, np.random.default_rng([seed, 1]))
        row_built = reference_generate(profiles, cfg, np.random.default_rng([seed, 1]))
        sink = io.StringIO()
        write_alignment(synthesized, sink)
        parsed = parse_alignment(io.StringIO(sink.getvalue()), synthesized.inventory)
        assert synthesized.phones.dtype == np.int32
        for other in (row_built, parsed):
            assert np.array_equal(other.phones, synthesized.phones)
            assert np.array_equal(other.offsets, synthesized.offsets)
            assert other.utterance_ids == synthesized.utterance_ids
            assert other.speakers == synthesized.speakers
            assert other.by_speaker == synthesized.by_speaker
            assert other == synthesized

    # the cases include corpora that fit int32 and first overflows in the
    # first and in a later speaker
    @pytest.mark.parametrize("log_mean", [18.5, 19.5, 30.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_frame_counts_beyond_int32_name_the_same_utterance(self, log_mean, seed):
        cfg = config(population_log_mean=np.full(6, log_mean), sigma_token=1.0)
        profiles = sample_speakers(cfg, np.random.default_rng([seed, 0]))
        got = outcome(lambda: generate_corpus(profiles, cfg, np.random.default_rng([seed, 1])))
        want = outcome(lambda: reference_generate(profiles, cfg, np.random.default_rng([seed, 1])))
        assert got == want


class TestConfig:
    def test_from_mapping_scalar_log_mean(self):
        cfg = SynthConfig.from_mapping(
            {
                "n_speakers": 3,
                "utts_per_speaker": 2,
                "phones_per_utt": [5, 9],
                "n_classes": 7,
                "population_log_mean": 2.3,
                "sigma_speaker": 0.1,
                "sigma_token": 0.4,
                "seed": 5,
            }
        )
        assert cfg.n_classes == 7
        assert np.all(cfg.population_log_mean == 2.3)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig.from_mapping({"n_speakers": 3})
        with pytest.raises(ConfigError, match="unexpected keyword argument 'n_speaker'"):
            SynthConfig.from_mapping({**asdict(config()), "n_speaker": 3})
        with pytest.raises(ConfigError, match="needs n_classes"):
            SynthConfig.from_mapping({**asdict(config()), "population_log_mean": 2.3})
        for mean in ([[1.0], [1.0, 2.0]], [[1.0, 2.0]], [], ["2.3"], [True], [np.inf]):
            with pytest.raises(ConfigError, match="population_log_mean"):
                config(population_log_mean=mean)
        with pytest.raises(ConfigError):
            config(sigma_token=0.0)
        with pytest.raises(ConfigError):
            config(phones_per_utt=(9, 5))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config(seed=-1)

    def test_profiles_json_serializable(self):
        cfg = config()
        profiles = sample_speakers(cfg, np.random.default_rng(1))
        sink = io.StringIO()
        write_profiles(profiles, sink)
        payload = json.loads(sink.getvalue())
        assert len(payload) == cfg.n_speakers
        assert payload[0]["speaker_id"] == "S000"

    def test_synthetic_inventory_labels(self):
        inv = synthetic_inventory(3)
        assert inv.symbols == ("PH000", "PH001", "PH002")


def test_metric_eer_monotone_in_speaker_spread():
    """More between-speaker spread never hurts the metric attack.

    Run at the 8-utterance setup so sigma_speaker = 0.05 is resolvable
    above trial noise at ~2400 trials.
    """
    from durasv.evaluation import build_trials, compute_eer
    from durasv.metric import score_trials_metric

    eers = []
    for sigma_speaker in (0.0, 0.05, 0.2):
        cfg = SynthConfig(
            n_speakers=20,
            utts_per_speaker=72,
            phones_per_utt=(20, 50),
            population_log_mean=np.full(24, np.log(10.0)),
            sigma_speaker=sigma_speaker,
            sigma_token=0.35,
            seed=303,
        )
        profiles = sample_speakers(cfg, np.random.default_rng([303, 0]))
        corpus = generate_corpus(profiles, cfg, np.random.default_rng([303, 1]))
        trials = build_trials(corpus, 8, 8, seed=7, max_nontarget_per_speaker=110)
        assert len(trials.trials) >= 2000
        eer, _ = compute_eer(score_trials_metric(corpus, trials))
        eers.append(eer)
    assert eers[0] >= eers[1] >= eers[2]
