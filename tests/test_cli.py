import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest

from durasv.alignment import Corpus, arpabet_positional_inventory, write_alignment
from durasv.cli import build_parser, main
from durasv.model import ModelConfig, loss_and_grad
from durasv.synth import SynthConfig, generate_corpus, sample_speakers
from durasv.training import TrainConfig


@pytest.fixture
def synth_config(tmp_path):
    config = {
        "n_speakers": 4,
        "utts_per_speaker": 12,
        "phones_per_utt": [15, 30],
        "n_classes": 8,
        "population_log_mean": 2.3,
        "sigma_speaker": 0.4,
        "sigma_token": 0.3,
        "seed": 17,
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def corpus_dir(tmp_path, synth_config):
    out = tmp_path / "corpus"
    assert main(["synth", "--config", str(synth_config), "--out", str(out)]) == 0
    return out


def run_trials(corpus_dir, out, n=1, seed=3):
    return main(
        [
            "trials",
            "--align", str(corpus_dir / "alignment.txt"),
            "--inventory", str(corpus_dir / "inventory.txt"),
            "--n-enroll", str(n),
            "--n-trial", str(n),
            "--seed", str(seed),
            "--out", str(out),
        ]
    )


def corpus_options(corpus_dir):
    return [
        "--align", str(corpus_dir / "alignment.txt"),
        "--inventory", str(corpus_dir / "inventory.txt"),
    ]


def attack(corpus_dir, tmp_path, capsys, model):
    """``--model`` for ``score``: "metric", or a tiny untrained model file."""
    if model == "metric":
        return model
    path = str(tmp_path / model)
    argv = ["train", *corpus_options(corpus_dir), "--out", path, "--epochs", "0"]
    tiny = ["--proj-dim", "4", "--channels", "4", "--embed-dim", "4"]
    assert main([*argv, *tiny, "--attention-hidden", "4"]) == 0
    capsys.readouterr()
    return path


def assert_one_line_error(capsys, out_dir, words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and words in err
    assert list(out_dir.iterdir()) == []


class TestSynthCommand:
    def test_outputs_exist_and_parse(self, corpus_dir):
        assert (corpus_dir / "alignment.txt").exists()
        assert (corpus_dir / "inventory.txt").exists()
        assert (corpus_dir / "profiles.json").exists()
        manifest = json.loads((corpus_dir / "synth.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["resolved"]["seed"] == 17

    def test_same_seed_identical_files(self, tmp_path, synth_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--config", str(synth_config), "--out", str(a)]) == 0
        assert main(["synth", "--config", str(synth_config), "--out", str(b)]) == 0
        assert (a / "alignment.txt").read_bytes() == (b / "alignment.txt").read_bytes()
        assert (a / "profiles.json").read_bytes() == (b / "profiles.json").read_bytes()

    @pytest.mark.parametrize(
        "changes, words",
        [
            (None, "bad synthesis config"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"n_speakers": 2.7}, "n_speakers must be an integer, got 2.7"),
            ({"n_speakers": "3"}, "n_speakers must be an integer, got '3'"),
            ({"n_speakers": True}, "n_speakers must be an integer, got True"),
            ({"speakers": 4}, "unexpected keyword argument 'speakers'"),
            ({"population_log_mean": [2.3] * 6}, "n_classes is 8, population_log_mean has 6"),
            ({"sigma_speaker": float("nan")}, "sigma_speaker must be a finite number"),
        ],
        ids=[
            "missing-keys",
            "negative-seed",
            "float-count",
            "string-count",
            "bool-count",
            "unknown-key",
            "n-classes-not-mean-length",
            "nan-sigma",
        ],
    )
    def test_bad_config_exits_one(self, tmp_path, synth_config, capsys, changes, words):
        config = {"n_speakers": 0}
        if changes is not None:
            config = {**json.loads(synth_config.read_text()), **changes}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err
        assert not (tmp_path / "x").exists()


    def test_manifest_fields_rebuild_the_corpus(self, corpus_dir, tmp_path):
        resolved = json.loads((corpus_dir / "synth.manifest.json").read_text())["resolved"]
        rebuilt = tmp_path / "rebuilt.json"
        rebuilt.write_text(json.dumps({f.name: resolved[f.name] for f in fields(SynthConfig)}))
        again = tmp_path / "again"
        assert main(["synth", "--config", str(rebuilt), "--out", str(again)]) == 0
        alignment = (corpus_dir / "alignment.txt").read_bytes()
        assert (again / "alignment.txt").read_bytes() == alignment

    def test_frame_counts_beyond_int32_exit_one(self, tmp_path, synth_config, capsys):
        config = json.loads(synth_config.read_text())
        config["population_log_mean"] = 30.0  # e^30 frames do not fit int32
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(huge), "--out", str(out)]) == 1
        assert_one_line_error(capsys, out, "exceed int32")


class TestTrialsCommand:
    def test_trials_written(self, corpus_dir, tmp_path):
        out = tmp_path / "trials.txt"
        assert run_trials(corpus_dir, out) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines
        assert all(l.split()[3] in ("target", "nontarget") for l in lines)

    def test_seed_determinism(self, corpus_dir, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run_trials(corpus_dir, a, seed=5) == 0
        assert run_trials(corpus_dir, b, seed=5) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ineligible_corpus_exits_one(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "trials.txt"
        assert run_trials(corpus_dir, out, n=40) == 1
        assert "error" in capsys.readouterr().err

    def test_arpabet_inventory_file_exits_zero(self, tmp_path):
        # the README's 336-label inventory, which once made every command hang
        inventory = arpabet_positional_inventory()
        synth = SynthConfig(
            n_speakers=3,
            utts_per_speaker=4,
            phones_per_utt=(10, 20),
            population_log_mean=np.full(inventory.size, np.log(10.0)),
            sigma_speaker=0.3,
            sigma_token=0.3,
            seed=2,
        )
        profiles = sample_speakers(synth, np.random.default_rng([2, 0]))
        corpus = generate_corpus(profiles, synth, np.random.default_rng([2, 1]))
        (tmp_path / "inventory.txt").write_text("\n".join(inventory.symbols) + "\n")
        with open(tmp_path / "alignment.txt", "w", encoding="utf-8") as sink:
            speaker_ids = [corpus.speakers[s] for s in corpus.speaker_index.tolist()]
            relabeled = Corpus(
                inventory, corpus.phones, corpus.offsets, corpus.utterance_ids, speaker_ids
            )
            write_alignment(relabeled, sink)
        assert run_trials(tmp_path, tmp_path / "trials.txt") == 0

    def test_byte_order_mark_changes_no_trial(self, corpus_dir, tmp_path):
        # a BOM once made "\ufeffS001" a speaker of its own, next to "S001"
        assert run_trials(corpus_dir, tmp_path / "plain.txt") == 0
        for name in ("alignment.txt", "inventory.txt"):
            path = corpus_dir / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run_trials(corpus_dir, tmp_path / "marked.txt") == 0
        marked = (tmp_path / "marked.txt").read_bytes()
        assert marked == (tmp_path / "plain.txt").read_bytes()


class TestScoreAndEval:
    def test_metric_scoring_and_eval(self, corpus_dir, tmp_path):
        trials = tmp_path / "trials.txt"
        scores = tmp_path / "scores.txt"
        report = tmp_path / "report.json"
        assert run_trials(corpus_dir, trials, n=2) == 0
        assert main(
            [
                "score",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--trials", str(trials),
                "--model", "metric",
                "--out", str(scores),
            ]
        ) == 0
        assert main(["eval", str(scores), "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["cells"][0]["model"] == "metric"
        assert 0.0 <= payload["cells"][0]["eer"] <= 1.0
        assert payload["cells"][0]["n_enroll"] == 2

    def test_missing_alignment_exits_two(self, corpus_dir, tmp_path, capsys):
        assert main(
            [
                "score",
                "--align", str(tmp_path / "nope.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--trials", str(tmp_path / "nope2.txt"),
                "--model", "metric",
                "--out", str(tmp_path / "s.txt"),
            ]
        ) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_empty_score_file_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# scores polarity=larger-is-similar\n")
        assert main(["eval", str(empty), "--out", str(tmp_path / "r.json")]) == 1
        capsys.readouterr()

    def test_score_file_without_polarity_exits_one(self, corpus_dir, tmp_path, capsys):
        trials = tmp_path / "trials.txt"
        scores = tmp_path / "metric.scores"
        assert run_trials(corpus_dir, trials, n=2) == 0
        argv = ["score", *corpus_options(corpus_dir), "--trials", str(trials)]
        assert main([*argv, "--model", "metric", "--out", str(scores)]) == 0
        lines = scores.read_text().splitlines(keepends=True)
        assert lines[0].startswith("# scores polarity=smaller-is-similar")
        out = tmp_path / "out"
        out.mkdir()
        (out / "metric.scores").write_text("".join(lines[1:]))
        capsys.readouterr()
        assert main(["eval", str(out / "metric.scores"), "--out", str(out / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "polarity" in err
        assert list(out.iterdir()) == [out / "metric.scores"]

    @pytest.mark.parametrize(
        "header, words",
        [
            (None, "no n_enroll= n_trial= seed= header"),
            ("# trials n_enroll=2 n_trial=1 seed=3\n", "line 2: sets of 2+2 utterances"),
        ],
    )
    def test_trial_file_without_its_header_exits_one(
        self, corpus_dir, tmp_path, capsys, header, words
    ):
        trials = tmp_path / "trials.txt"
        assert run_trials(corpus_dir, trials, n=2) == 0
        lines = trials.read_text().splitlines(keepends=True)
        assert lines[0].startswith("# trials n_enroll=2 n_trial=2 seed=3")
        trials.write_text("".join([header or "", *lines[1:]]))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        argv = ["score", *corpus_options(corpus_dir), "--trials", str(trials)]
        assert main([*argv, "--model", "metric", "--out", str(out / "scores.txt")]) == 1
        assert_one_line_error(capsys, out, words)

    def test_unknown_utterance_in_trials_exits_one(self, corpus_dir, tmp_path, capsys):
        trials = tmp_path / "trials.txt"
        trials.write_text(
            "# trials n_enroll=1 n_trial=1 seed=0\nS000 S000-u0000 ghost-utt nontarget\n"
        )
        rc = main(
            [
                "score",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--trials", str(trials),
                "--model", "metric",
                "--out", str(tmp_path / "s.txt"),
            ]
        )
        assert rc == 1
        assert "ghost-utt" in capsys.readouterr().err


    def test_bad_header_value_exits_one(self, corpus_dir, tmp_path, capsys):
        trials = tmp_path / "trials.txt"
        trials.write_text("# trials n_enroll=x\nS000 S000-u0000 S001-u0000 nontarget\n")
        rc = main(
            [
                "score",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--trials", str(trials),
                "--model", "metric",
                "--out", str(tmp_path / "s.txt"),
            ]
        )
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_overlapping_trial_sets_exit_one(self, corpus_dir, tmp_path, capsys):
        trials = tmp_path / "trials.txt"
        trials.write_text(
            "# trials n_enroll=1 n_trial=1 seed=0\n"
            "S000 S000-u0000 S001-u0000 nontarget\n"
            "S000 S000-u0000 S000-u0000 target\n"
        )
        rc = main(
            [
                "score",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--trials", str(trials),
                "--model", "metric",
                "--out", str(tmp_path / "s.txt"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:") and "overlap" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "s.txt").exists()

    @pytest.mark.parametrize("model", ["metric", "model.bin"])
    def test_mixed_speaker_set_exits_one(self, corpus_dir, tmp_path, capsys, model):
        model = attack(corpus_dir, tmp_path, capsys, model)
        trials = tmp_path / "trials.txt"
        trials.write_text(
            "# trials n_enroll=2 n_trial=1 seed=0\n"
            "S000 S000-u0000,S001-u0000 S000-u0001 target\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        argv = ["score", *corpus_options(corpus_dir), "--trials", str(trials)]
        assert main([*argv, "--model", model, "--out", str(out / "scores.txt")]) == 1
        assert_one_line_error(capsys, out, "S000-u0000,S001-u0000 mixes speakers")

    @pytest.mark.parametrize("model", ["metric", "model.bin"])
    @pytest.mark.parametrize(
        "field, edit",
        [(3, {"target": "nontarget", "nontarget": "target"}.get), (0, lambda speaker: "NOBODY")],
        ids=["flipped-labels", "renamed-enrollment-speaker"],
    )
    def test_trials_that_disagree_with_the_corpus_exit_one(
        self, corpus_dir, tmp_path, capsys, model, field, edit
    ):
        model = attack(corpus_dir, tmp_path, capsys, model)
        trials = tmp_path / "trials.txt"
        assert run_trials(corpus_dir, trials, n=2) == 0
        header, *records = trials.read_text().splitlines()
        edited = [r.split() for r in records]
        for record in edited:
            record[field] = edit(record[field])
        trials.write_text("\n".join([header, *map(" ".join, edited)]) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        argv = ["score", *corpus_options(corpus_dir), "--trials", str(trials)]
        assert main([*argv, "--model", model, "--out", str(out / "scores.txt")]) == 1
        speaker, enroll, trial, kind = edited[0]
        said = f"trial {enroll} {trial} says speaker {speaker!r}, {kind}; the corpus says"
        assert_one_line_error(capsys, out, said)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_exits_one(self, tmp_path, capsys, value):
        scores = tmp_path / "scores.txt"
        scores.write_text(
            "# scores polarity=larger-is-similar\n"
            f"e1 t1 {value} target\ne2 t2 0.5 nontarget\n"
        )
        assert main(["eval", str(scores), "--out", str(tmp_path / "r.json")]) == 1
        assert "non-finite" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "options, words",
        [
            (["--kernel-width", "2"], "kernel width"),
            (["--batch-size", "0"], "batch_size must be >= 1"),
            (["--dilations", "0"], "dilations"),
            (["--chunk-min", "300", "--chunk-max", "256"], "chunk_min <= chunk_max"),
            (["--chunk-min", "0"], "chunk_min must be >= 1"),
            (["--seed", "-1"], "seed must be >= 0"),
        ],
        ids=[
            "even-kernel",
            "zero-batch",
            "zero-dilation",
            "min-above-max",
            "zero-min",
            "negative-seed",
        ],
    )
    def test_bad_train_option_exits_one(self, corpus_dir, tmp_path, capsys, options, words):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", *corpus_options(corpus_dir), "--out", str(out / "model.bin")]
        assert main([*argv, "--epochs", "1", *options]) == 1
        assert_one_line_error(capsys, out, words)

    @pytest.mark.parametrize(
        "options, words",
        [
            (["--n-enroll", "0", "--n-trial", "1"], "n_enroll must be >= 1"),
            (["--n-enroll", "1", "--n-trial", "0"], "n_trial must be >= 1"),
            (
                ["--n-enroll", "1", "--n-trial", "1", "--max-nontarget", "-1"],
                "max_nontarget_per_speaker must be >= 0",
            ),
            (["--n-enroll", "1", "--n-trial", "1", "--seed", "-1"], "seed must be >= 0"),
            (["--n-enroll", "1", "--n-trial", "1", "--exclude", "SIL "], "excluded label"),
        ],
        ids=[
            "zero-enroll", "zero-trial", "negative-max-nontarget", "negative-seed", "spaced-exclude"
        ],
    )
    def test_bad_trials_option_exits_one(self, corpus_dir, tmp_path, capsys, options, words):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["trials", *corpus_options(corpus_dir), "--out", str(out / "trials.txt")]
        assert main([*argv, *options]) == 1
        assert_one_line_error(capsys, out, words)

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_bad_gradcheck_draws_exits_one(self, tmp_path, capsys, draws):
        assert main(["gradcheck", "--draws", draws]) == 1
        assert_one_line_error(capsys, tmp_path, "n_draws must be >= 1")

    def test_version_1_model_exits_one(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "v1.bin"
        argv = ["train", *corpus_options(corpus_dir), "--out", str(model), "--epochs", "0"]
        tiny = ["--proj-dim", "4", "--channels", "4", "--embed-dim", "4"]
        assert main([*argv, *tiny, "--attention-hidden", "4"]) == 0
        data = bytearray(model.read_bytes())
        data[8:10] = (1).to_bytes(2, "little")  # the format version field
        model.write_bytes(bytes(data))
        trials = tmp_path / "trials.txt"
        assert run_trials(corpus_dir, trials) == 0
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        argv = ["score", *corpus_options(corpus_dir), "--trials", str(trials)]
        assert main([*argv, "--model", str(model), "--out", str(out / "scores.txt")]) == 1
        assert_one_line_error(capsys, out, "format version 1, expected 2")

    def test_model_for_another_inventory_size_exits_one(
        self, corpus_dir, synth_config, tmp_path, capsys
    ):
        model = tmp_path / "model.bin"
        argv = ["train", *corpus_options(corpus_dir), "--out", str(model), "--epochs", "0"]
        tiny = ["--proj-dim", "4", "--channels", "4", "--embed-dim", "4"]
        assert main([*argv, *tiny, "--attention-hidden", "4"]) == 0
        config = json.loads(synth_config.read_text())
        config["n_classes"] = 6
        six_config = tmp_path / "six.json"
        six_config.write_text(json.dumps(config))
        six = tmp_path / "six"
        assert main(["synth", "--config", str(six_config), "--out", str(six)]) == 0
        trials = tmp_path / "trials.txt"
        assert run_trials(six, trials) == 0
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        argv = ["score", *corpus_options(six), "--trials", str(trials)]
        assert main([*argv, "--model", str(model), "--out", str(out / "scores.txt")]) == 1
        assert_one_line_error(capsys, out, "8 phone classes, inventory has 6")


def test_eer_of_scores_past_two_to_the_53(tmp_path, capsys):
    # 2e16 + 1.0 rounds back to 2e16, so no threshold rejected both trials
    # and compute_eer died with an IndexError
    scores = tmp_path / "big.scores"
    scores.write_text(
        "# scores polarity=larger-is-similar\ne1 t1 2e16 target\ne2 t2 2e16 nontarget\n"
    )
    assert main(["eval", str(scores), "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["cells"][0]["eer"] == 0.5


def test_eer_threshold_past_the_largest_float_refused(tmp_path, capsys):
    # the next float up from the largest is inf, which went into the report
    # as "threshold": Infinity, not JSON
    scores = tmp_path / "max.scores"
    top = sys.float_info.max
    scores.write_text(
        f"# scores polarity=larger-is-similar\ne1 t1 {top!r} target\ne2 t2 {top!r} nontarget\n"
    )
    assert main(["eval", str(scores), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "largest finite float" in err
    assert not (tmp_path / "r.json").exists()


def test_score_header_count_below_one_refused(tmp_path, capsys):
    # the report once carried "n_enroll": -3, "n_trial": 0, with exit 0
    scores = tmp_path / "bad.scores"
    scores.write_text(
        "# scores polarity=larger-is-similar n_enroll=-3 n_trial=0\n"
        "e1 t1 0.9 target\ne2 t2 0.1 nontarget\n"
    )
    assert main(["eval", str(scores), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "line 1: bad header value n_enroll='-3'" in err
    assert not (tmp_path / "r.json").exists()


class TestTrainCommand:
    def test_one_option_per_config_field(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {a.dest: a for a in sub.choices["train"]._actions}
        config = [
            f for cls in (ModelConfig, TrainConfig) for f in fields(cls)
            if f.name not in ("n_classes", "n_speakers")
        ]
        others = {"help", "align", "inventory", "exclude", "out", "log"}
        assert set(options) == {f.name for f in config} | others
        named = {"learning_rate": ["--lr"], "encoder_channels": ["--channels"]}
        for f in config:
            option = options[f.name]
            assert option.option_strings == named.get(f.name, ["--" + f.name.replace("_", "-")])
            assert option.required == (f.default is MISSING)
            assert option.default == (None if option.required else f.default)
            assert option.type is (float if f.name == "learning_rate" else int)
            assert option.nargs == ("+" if f.name == "dilations" else None)

    def test_train_and_embedding_score_pipeline(self, corpus_dir, tmp_path):
        model = tmp_path / "model.bin"
        rc = main(
            [
                "train",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--out", str(model),
                "--epochs", "8",
                "--seed", "4",
                "--proj-dim", "8",
                "--channels", "8",
                "--embed-dim", "8",
                "--attention-hidden", "4",
                "--batch-size", "8",
            ]
        )
        assert rc == 0
        assert model.exists()
        log = (tmp_path / "model.bin.log").read_text().splitlines()
        assert len(log) == 8
        assert log[0].startswith("epoch 1 mean_loss")
        losses = [float(line.split()[-1]) for line in log]
        assert losses[-1] < losses[0]

        trials = tmp_path / "trials.txt"
        scores = tmp_path / "scores.txt"
        assert run_trials(corpus_dir, trials, n=2) == 0
        assert main(
            [
                "score",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--trials", str(trials),
                "--model", str(model),
                "--out", str(scores),
            ]
        ) == 0
        header = scores.read_text().splitlines()[0]
        assert "polarity=larger-is-similar" in header

    def test_zero_epochs_model_equals_init(self, corpus_dir, tmp_path):
        from durasv.model import init_model
        from durasv.model_io import load_model

        model = tmp_path / "model.bin"
        rc = main(
            [
                "train",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--out", str(model),
                "--epochs", "0",
                "--seed", "9",
                "--proj-dim", "8",
                "--channels", "8",
                "--dilations", "1", "4",
                "--embed-dim", "8",
                "--attention-hidden", "4",
            ]
        )
        assert rc == 0
        loaded = load_model(model)
        assert (loaded.config.n_blocks, loaded.config.dilations) == (2, (1, 4))
        manifest = json.loads((tmp_path / "model.bin.manifest.json").read_text())
        resolved = manifest["resolved"]
        assert resolved["model_config"]["dilations"] == [1, 4]
        assert "n_blocks" not in resolved["model_config"]
        assert resolved["learning_rate"] == 1e-3
        reference = init_model(loaded.config, np.random.default_rng([9, 0]))
        for name in reference.tensors:
            assert np.array_equal(loaded.tensors[name], reference.tensors[name])

    def test_default_options_are_the_config_defaults(self, corpus_dir, tmp_path):
        from durasv.model import ModelConfig
        from durasv.training import TrainConfig

        model = tmp_path / "model.bin"
        argv = ["train", *corpus_options(corpus_dir), "--out", str(model), "--epochs", "0"]
        assert main(argv) == 0
        resolved = json.loads((tmp_path / "model.bin.manifest.json").read_text())["resolved"]
        # the manifest is JSON, so tuples come back as lists
        expected = json.loads(json.dumps(asdict(ModelConfig(n_classes=8, n_speakers=4))))
        assert resolved["model_config"] == expected
        hyper = asdict(TrainConfig(epochs=0))
        assert {k: resolved[k] for k in hyper} == hyper

    def test_kernel_width_1_trains(self, corpus_dir, tmp_path):
        from durasv.model_io import load_model

        model = tmp_path / "model.bin"
        rc = main(
            [
                "train",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--out", str(model),
                "--epochs", "1",
                "--kernel-width", "1",
                "--proj-dim", "4",
                "--channels", "4",
                "--embed-dim", "4",
                "--attention-hidden", "4",
            ]
        )
        assert rc == 0
        loaded = load_model(model)
        assert loaded.config.kernel_width == 1
        assert all(np.isfinite(t).all() for t in loaded.tensors.values())

    def test_diverged_training_exits_one_without_model(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        from durasv import training

        monkeypatch.setattr(training, "loss_and_grad", lambda p, b: (float("nan"), {}))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(
            [
                "train",
                "--align", str(corpus_dir / "alignment.txt"),
                "--inventory", str(corpus_dir / "inventory.txt"),
                "--out", str(out / "model.bin"),
                "--epochs", "3",
                "--proj-dim", "4",
                "--channels", "4",
                "--embed-dim", "4",
                "--attention-hidden", "4",
            ]
        )
        assert rc == 1
        assert "non-finite loss at epoch 1, step 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_missing_alignment_exits_two(self, tmp_path):
        rc = main(
            [
                "train",
                "--align", str(tmp_path / "ghost.txt"),
                "--inventory", str(tmp_path / "ghost-inv.txt"),
                "--out", str(tmp_path / "m.bin"),
                "--epochs", "1",
            ]
        )
        assert rc == 2


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "2", "--draws", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_defaults_are_gradient_checks(self):
        from inspect import signature

        from durasv.model import gradient_check

        args = build_parser().parse_args(["gradcheck"])
        defaults = signature(gradient_check).parameters
        assert (args.seed, args.draws) == (defaults["seed"].default, defaults["n_draws"].default)

    def test_corrupt_gradient_exits_one(self, capsys, monkeypatch):
        def biased(params, batch):
            loss, grads = loss_and_grad(params, batch)
            return loss, grads | {"emb_w": grads["emb_w"] + 1.0}

        monkeypatch.setattr("durasv.model.loss_and_grad", biased)
        assert main(["gradcheck", "--draws", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_determinism(self, capsys):
        assert main(["gradcheck", "--seed", "3", "--draws", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "3", "--draws", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        # no generator takes a negative seed
        assert main(["gradcheck", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"


def run_each_command(command, corpus_dir, synth_config, tmp_path):
    """The argv of one run of ``command``; the files it reads are made first."""
    trials, scores = tmp_path / "trials.txt", tmp_path / "metric.scores"
    assert run_trials(corpus_dir, trials, n=2) == 0
    score = ["score", *corpus_options(corpus_dir), "--trials", str(trials), "--model", "metric"]
    assert main([*score, "--out", str(scores)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    return {
        "synth": ["synth", "--config", str(synth_config), "--out", str(out / "corpus")],
        "train": [
            "train", *corpus_options(corpus_dir), "--exclude", "PH007", "--epochs", "0",
            "--proj-dim", "4", "--channels", "4", "--embed-dim", "4", "--out", str(out / "m"),
        ],
        "trials": [
            "trials", *corpus_options(corpus_dir), "--n-enroll", "1", "--n-trial", "1",
            "--out", str(out / "trials.txt"),
        ],
        "score": [*score, "--out", str(out / "s")],
        "eval": ["eval", str(scores), "--out", str(out / "r.json")],
    }[command]


@pytest.mark.parametrize("command", ["synth", "train", "trials", "score", "eval"])
def test_manifest_records_every_parsed_option(corpus_dir, synth_config, tmp_path, command):
    argv = run_each_command(command, corpus_dir, synth_config, tmp_path)
    assert main(argv) == 0
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    path = out / f"{command}.manifest.json" if out.is_dir() else Path(f"{out}.manifest.json")
    manifest = json.loads(path.read_text())
    assert manifest["subcommand"] == command
    parsed = {k: v for k, v in vars(args).items() if k != "func"}
    # the manifest is JSON, so tuples come back as lists
    parsed = json.loads(json.dumps(parsed))
    assert {k: manifest["resolved"].get(k, "missing") for k in parsed} == parsed


@pytest.mark.parametrize(
    "command, bad, line",
    [
        ("trials", "alignment.txt", 1),
        ("trials", "alignment.txt", 12_000),
        ("trials", "inventory.txt", 1),
        ("score", "trials.txt", 1),
        ("eval", "metric.scores", 1),
        ("synth", "synth.json", 1),
    ],
)
def test_input_that_is_not_utf8_exits_one(
    corpus_dir, synth_config, tmp_path, capsys, command, bad, line
):
    argv = run_each_command(command, corpus_dir, synth_config, tmp_path)
    target = next(p for p in (corpus_dir / bad, tmp_path / bad) if p.exists())
    lines = target.read_bytes().splitlines(keepends=True)
    if line > len(lines):
        # a valid alignment whose lines end in turn with \n, \r\n and a lone \r
        ends = [b"\n", b"\r\n", b"\r"]
        lines = [
            b"s%d u%d PH00%d %d%s" % (i // 2000, i // 20, i % 8, 1 + i % 9, ends[i % 3])
            for i in range(15_000)
        ]
    offset = sum(map(len, lines[: line - 1]))
    if line > 1:
        assert offset > 2**17  # past the parser's first read of 2^17 characters
    lines[line - 1] = b"\xe9" + lines[line - 1]  # 0xE9 begins no UTF-8 sequence here
    target.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == 1
    words = f"{target}, line {line}: can't decode byte 0xe9 at byte offset {offset} as UTF-8"
    assert_one_line_error(capsys, tmp_path / "out", words)
