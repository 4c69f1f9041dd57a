"""Command-line pipelines: synth, train, trials, score, eval, gradcheck.

Every subcommand but gradcheck writes a JSON manifest next to its outputs:
every parsed option, the outputs and the resolved model or synthesis config,
so a run can be reproduced byte-for-byte. Exit codes: 0 success, 1 domain
error (an input file that is not UTF-8 among them), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import MISSING, asdict, fields
from importlib.metadata import PackageNotFoundError, version
from inspect import signature
from pathlib import Path
from typing import get_args

import numpy as np

from . import evaluation, synth
from .alignment import Corpus, load_inventory, parse_alignment, write_alignment
from .embeddings import score_trials_embedding
from .errors import ConfigError, DurasvError, field_kinds, open_text
from .metric import score_trials_metric
from .model import ModelConfig, gradient_check, tiny_gradcheck_config
from .model_io import load_model, save_model
from .training import TrainConfig, train

try:
    TOOL_VERSION = version("durasv")
except PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0.0.0+source"


def _write_manifest(out_path: Path, args: argparse.Namespace, **resolved) -> None:
    manifest = {
        "subcommand": args.command,
        "tool_version": TOOL_VERSION,
        "resolved": {k: v for k, v in vars(args).items() if k != "func"} | resolved,
    }
    target = out_path / f"{args.command}.manifest.json" if out_path.is_dir() else Path(
        str(out_path) + ".manifest.json"
    )
    text = json.dumps(manifest, indent=2, sort_keys=True, default=np.ndarray.tolist)
    target.write_text(text + "\n")


def _load_corpus(align_path: str, inventory_path: str, exclude: list[str]) -> Corpus:
    with open_text(inventory_path) as handle:
        inventory = load_inventory(handle)
    with open_text(align_path) as handle:
        return parse_alignment(handle, inventory, exclude)


def _add_config_options(parser: argparse.ArgumentParser, cls, skip: tuple[str, ...] = ()) -> None:
    """One option per field of config dataclass ``cls`` not in ``skip``, dest the field name."""
    named = {"learning_rate": "--lr", "encoder_channels": "--channels"}
    kinds = field_kinds(cls)
    for f in fields(cls):
        if f.name not in skip:
            kind, is_tuple = kinds[f.name]
            base, op, least = get_args(kind)
            parser.add_argument(
                named.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name, type=base,
                nargs="+" if is_tuple else None,
                default=None if f.default is MISSING else f.default, required=f.default is MISSING,
                help=f"{'each ' if is_tuple else ''}{op} {least}",
            )


def _from_args(cls, args: argparse.Namespace, **derived):
    """A config dataclass from the options whose dest is one of its fields."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given}, **derived)


def cmd_synth(args: argparse.Namespace) -> int:
    config = synth.SynthConfig.from_json_file(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng([config.seed, 0])
    profiles = synth.sample_speakers(config, rng)
    try:
        corpus = synth.generate_corpus(
            profiles, config, np.random.default_rng([config.seed, 1])
        )
    except ValueError as exc:  # a drawn frame count beyond the int32 bound
        raise ConfigError(f"config draws unusable durations: {exc}") from exc

    align_path = out_dir / "alignment.txt"
    inventory_path = out_dir / "inventory.txt"
    profiles_path = out_dir / "profiles.json"
    with open(align_path, "w", encoding="utf-8") as sink:
        write_alignment(corpus, sink)
    inventory_path.write_text("\n".join(corpus.inventory.symbols) + "\n")
    with open(profiles_path, "w", encoding="utf-8") as sink:
        synth.write_profiles(profiles, sink)
    outputs = [str(align_path), str(inventory_path), str(profiles_path)]
    _write_manifest(out_dir, args, **asdict(config), n_classes=config.n_classes, outputs=outputs)
    print(f"wrote {len(corpus)} utterances for {config.n_speakers} speakers to {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.align, args.inventory, args.exclude)
    config = _from_args(
        ModelConfig, args, n_classes=corpus.inventory.size, n_speakers=len(corpus.by_speaker)
    )
    hyper = _from_args(TrainConfig, args)
    result = train(corpus, config, hyper)
    out_path = Path(args.out)
    save_model(result.params, out_path)

    log_path = Path(args.log) if args.log else Path(str(out_path) + ".log")
    log_lines = [
        f"epoch {i + 1} mean_loss {loss!r}" for i, loss in enumerate(result.epoch_losses)
    ]
    log_path.write_text("\n".join(log_lines) + ("\n" if log_lines else ""))

    _write_manifest(
        out_path, args, model_config=asdict(config), outputs=[str(out_path), str(log_path)]
    )
    first = result.epoch_losses[0] if result.epoch_losses else float("nan")
    last = result.epoch_losses[-1] if result.epoch_losses else float("nan")
    print(f"trained {args.epochs} epochs, loss {first:.4f} -> {last:.4f}, model {out_path}")
    return 0


def cmd_trials(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.align, args.inventory, args.exclude)
    trial_list = evaluation.build_trials(
        corpus, args.n_enroll, args.n_trial, args.seed, args.max_nontarget
    )
    out_path = Path(args.out)
    with open(out_path, "w", encoding="utf-8") as sink:
        evaluation.write_trials(trial_list, sink)
    _write_manifest(out_path, args, outputs=[str(out_path)])
    n_target = sum(1 for t in trial_list.trials if t.is_target)
    print(
        f"wrote {len(trial_list.trials)} trials ({n_target} target) to {out_path}; "
        f"skipped {len(trial_list.skipped_speakers)} speaker(s)"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.align, args.inventory, args.exclude)
    with open_text(args.trials) as handle:
        trial_list = evaluation.read_trials(handle)
    if args.model == "metric":
        scores = score_trials_metric(corpus, trial_list)
    else:
        params = load_model(args.model)
        scores = score_trials_embedding(params, corpus, trial_list)
    out_path = Path(args.out)
    with open(out_path, "w", encoding="utf-8") as sink:
        evaluation.write_scores(scores, sink)
    _write_manifest(out_path, args, outputs=[str(out_path)])
    print(f"wrote {scores.scores.size} scores ({scores.polarity}) to {out_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cells = []
    for score_path in args.scores:
        with open_text(score_path) as handle:
            scores = evaluation.read_scores(handle)
        condition = Path(score_path).stem
        cells.append((condition, scores.model or "unknown", scores))
    table = evaluation.evaluate(cells)
    out_path = Path(args.out)
    out_path.write_text(table.to_json() + "\n")
    _write_manifest(out_path, args, outputs=[str(out_path)])
    print(table.render())
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = gradient_check(tiny_gradcheck_config(), seed=args.seed, n_draws=args.draws)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"gradcheck {status}: max relative error {report.max_rel_error:.3e} "
        f"(mean {report.mean_rel_error:.3e}) over {report.n_draws} draws "
        f"of {report.n_parameters} parameters"
    )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="durasv",
        description="Speaker verification attacks on phoneme duration dynamics.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    corpus_args = argparse.ArgumentParser(add_help=False)
    corpus_args.add_argument("--align", required=True)
    corpus_args.add_argument("--inventory", required=True)
    corpus_args.add_argument("--exclude", action="append", default=[], metavar="LABEL")

    p = sub.add_parser("synth", help="generate a synthetic alignment corpus")
    p.add_argument("--config", required=True, help="JSON synthesis config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "train", parents=[corpus_args], help="train the duration embedding model"
    )
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log", default=None, help="training log path")
    _add_config_options(p, TrainConfig)
    _add_config_options(p, ModelConfig, skip=("n_classes", "n_speakers"))  # from the corpus
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "trials", parents=[corpus_args], help="build verification trials"
    )
    p.add_argument("--n-enroll", type=int, required=True)
    p.add_argument("--n-trial", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-nontarget",
        type=int,
        default=signature(evaluation.build_trials).parameters["max_nontarget_per_speaker"].default,
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser(
        "score", parents=[corpus_args], help="score trials with an attack model"
    )
    p.add_argument("--trials", required=True)
    p.add_argument(
        "--model",
        required=True,
        help='"metric" for the training-free ratio metric, or a model file path',
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="aggregate score files into an EER report")
    p.add_argument("scores", nargs="+", help="score files")
    p.add_argument("--out", required=True, help="JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    defaults = signature(gradient_check).parameters
    p.add_argument("--seed", type=int, default=defaults["seed"].default)
    p.add_argument("--draws", type=int, default=defaults["n_draws"].default)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DurasvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
