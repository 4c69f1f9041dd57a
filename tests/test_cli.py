import json

import numpy as np
import pytest

from durasv.cli import main


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

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_speakers": 0}')
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err


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
            (["--batch-size", "0"], "batch size"),
            (["--dilations", "0"], "dilations"),
            (["--chunk-min", "300", "--chunk-max", "256"], "chunk_min <= chunk_max"),
            (["--chunk-min", "0"], "1 <= chunk_min"),
        ],
        ids=["even-kernel", "zero-batch", "zero-dilation", "min-above-max", "zero-min"],
    )
    def test_bad_train_option_exits_one(self, corpus_dir, tmp_path, capsys, options, words):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", *corpus_options(corpus_dir), "--out", str(out / "model.bin")]
        assert main([*argv, "--epochs", "1", *options]) == 1
        assert_one_line_error(capsys, out, words)

    @pytest.mark.parametrize(
        "options",
        [
            ["--n-enroll", "0", "--n-trial", "1"],
            ["--n-enroll", "1", "--n-trial", "0"],
            ["--n-enroll", "1", "--n-trial", "1", "--max-nontarget", "-1"],
        ],
        ids=["zero-enroll", "zero-trial", "negative-max-nontarget"],
    )
    def test_bad_trials_option_exits_one(self, corpus_dir, tmp_path, capsys, options):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["trials", *corpus_options(corpus_dir), "--out", str(out / "trials.txt")]
        assert main([*argv, *options]) == 1
        assert_one_line_error(capsys, out, "n_enroll >= 1")

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


class TestTrainCommand:
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
        assert resolved["model_config"]["n_blocks"] == 2
        assert resolved["learning_rate"] == 1e-3
        reference = init_model(loaded.config, np.random.default_rng([9, 0]))
        for name in reference.tensors:
            assert np.array_equal(loaded.tensors[name], reference.tensors[name])

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
        assert loaded.config.kernel_width == 1 and loaded.all_finite()

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

    def test_corrupt_gradient_exits_one(self, capsys):
        assert main(["gradcheck", "--draws", "1", "--corrupt-gradient"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_determinism(self, capsys):
        assert main(["gradcheck", "--seed", "3", "--draws", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "3", "--draws", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
