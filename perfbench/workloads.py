"""The three workloads: seeded corpora, the timed pipeline pass, its traced replay.

Every workload runs one pipeline through durasv's public functions, the
way the command line does: parse the alignment file, train (train-acc
only), build trial lists, score them with the ratio metric and, when the
workload has a model, with the embedding, then compute EERs. The
workloads differ in corpus size and in which stages carry the work; see
README.md for why each was chosen.

The traced pass runs the same pipeline but splits the calls that hide
several layers (``train``, ``score_trials_metric``,
``score_trials_embedding``) into the calls they make, so that each layer
gets its own span. Its outputs must equal the plain pass's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from durasv import model as model_module
from durasv.alignment import Corpus, parse_alignment, write_alignment
from durasv.embeddings import cosine_score, score_trials_embedding
from durasv.evaluation import (
    ScoreSet,
    TrialList,
    build_trials,
    evaluate,
    read_scores,
    write_scores,
)
from durasv.features import (
    DurationFeatureSequence,
    make_chunks,
    mean_duration_vector,
    sequence_from_utterances,
)
from durasv.metric import duration_ratio_distance, score_trials_metric
from durasv.model import (
    Batch,
    ModelConfig,
    ModelParams,
    forward,
    forward_with_cache,
    gradient_check,
    init_model,
    loss_and_grad,
    pad_batch,
    tiny_gradcheck_config,
)
from durasv.model_io import load_model, save_model
from durasv.synth import SynthConfig, generate_corpus, sample_speakers
from durasv.training import AdamState, TrainConfig, _epoch_batches, train

from tracing import Checks, Trace

TRAIN_SEED = 5
TRIAL_SEED = 101
MODEL_SEED = 2507
# tolerance of the embedding scores against the committed reference;
# every pass of a run must reproduce the warm-up pass to the bit
EMBED_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CorpusSize:
    n_speakers: int
    utts_per_speaker: int
    phones_per_utt: tuple[int, int]
    n_classes: int
    base_seed: int  # synth seed at --seed 0; --seed n adds n


ACCEPTANCE = CorpusSize(20, 50, (10, 25), 96, base_seed=11)
SCALE = CorpusSize(200, 250, (10, 30), 336, base_seed=7)
SMOKE_SIZES = {
    ACCEPTANCE: CorpusSize(4, 20, (10, 25), 96, base_seed=11),
    SCALE: CorpusSize(6, 20, (10, 30), 336, base_seed=7),
}
EPOCHS = {"full": 3, "smoke": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSize
    trial_setups: tuple[tuple[int, int], ...]
    model: str | None  # "train", "fixed" or None
    scores_io: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-acc", ACCEPTANCE, ((8, 8),), model="train", scores_io=False),
        Workload("score-acc", ACCEPTANCE, ((1, 1), (8, 8)), model="fixed", scores_io=True),
        Workload("ingest-scale", SCALE, ((8, 8),), model=None, scores_io=False),
    )
}


@dataclass
class State:
    """Everything setup leaves for the passes."""

    workdir: Path
    corpus_size: CorpusSize
    synth_seed: int
    epochs: int
    alignment_path: Path
    inventory: object
    n_phones: int
    model_config: ModelConfig | None = None
    params: ModelParams | None = None
    model_bytes: int = 0


@dataclass
class PassOutput:
    """What one pass produced; every pass of a run must produce the same."""

    losses: list[float] = field(default_factory=list)
    scores: dict[str, np.ndarray] = field(default_factory=dict)
    eers: dict[str, float] = field(default_factory=dict)
    utterances: int = 0
    steps: int = 0

    @property
    def trials(self) -> int:
        return sum(s.size for s in self.scores.values())

    @property
    def operations(self) -> int:
        """Parsed utterances, training steps and scored trials."""
        return self.utterances + self.steps + self.trials

    @property
    def eer_8u(self) -> float:
        return self.eers.get("embedding 8+8", self.eers["metric 8+8"])


def synthesize(size: CorpusSize, synth_seed: int) -> Corpus:
    config = SynthConfig(
        n_speakers=size.n_speakers,
        utts_per_speaker=size.utts_per_speaker,
        phones_per_utt=size.phones_per_utt,
        population_log_mean=np.full(size.n_classes, np.log(10.0)),
        sigma_speaker=0.2,
        sigma_token=0.35,
        seed=synth_seed,
    )
    profiles = sample_speakers(config, np.random.default_rng([synth_seed, 0]))
    return generate_corpus(profiles, config, np.random.default_rng([synth_seed, 1]))


def same_params(a: ModelParams, b: ModelParams) -> bool:
    return a.config == b.config and list(a.tensors) == list(b.tensors) and all(
        np.array_equal(a.tensors[k], b.tensors[k]) and a.tensors[k].dtype == b.tensors[k].dtype
        for k in a.tensors
    )


def setup(
    workload: Workload, size: str, seed: int, workdir: Path, trace: Trace, checks: Checks
) -> State:
    """Synthesize the corpus, write its alignment file, prepare the model."""
    corpus_size = workload.corpus if size == "full" else SMOKE_SIZES[workload.corpus]
    synth_seed = corpus_size.base_seed + seed
    with trace.span("synth.generate"):
        corpus = synthesize(corpus_size, synth_seed)
    path = workdir / "corpus.txt"
    with trace.span("alignment.write"), open(path, "w", encoding="utf-8") as sink:
        write_alignment(corpus, sink)
    state = State(
        workdir,
        corpus_size,
        synth_seed,
        EPOCHS[size],
        path,
        corpus.inventory,
        sum(len(u) for u in corpus.utterances),
    )
    if workload.model is None:
        return state

    with trace.span("model.gradcheck"):
        report = gradient_check(tiny_gradcheck_config(), n_draws=2)
    checks.record(
        "gradcheck max relative error < 1e-4",
        report.passed,
        f"{report.max_rel_error:.3e}",
    )
    state.model_config = ModelConfig(corpus_size.n_classes, corpus_size.n_speakers)
    if workload.model == "fixed":
        params = init_model(state.model_config, np.random.default_rng(MODEL_SEED))
        model_path = workdir / "model.bin"
        with trace.span("model_io.save"):
            save_model(params, model_path)
        with trace.span("model_io.load"):
            state.params = load_model(model_path)
        state.model_bytes = model_path.stat().st_size
        checks.record("save_model/load_model round trip is bit-identical",
                      same_params(params, state.params))
    return state


def parse(state: State, trace: Trace) -> Corpus:
    with trace.span("alignment.parse"):
        with open(state.alignment_path, "r", encoding="utf-8") as source:
            corpus = parse_alignment(source, state.inventory)
    trace.count("alignment.phones", state.n_phones)
    return corpus


def run_pass(
    workload: Workload, state: State, trace: Trace, checks: Checks, traced: bool = False
) -> tuple[PassOutput, Corpus]:
    """One pass of the workload's pipeline; returns its outputs and corpus."""
    out = PassOutput()
    corpus = parse(state, trace)
    out.utterances = len(corpus)

    params = state.params
    if workload.model == "train":
        hyper = TrainConfig(epochs=state.epochs, seed=TRAIN_SEED)
        if traced:
            out.losses, params = replay_train(corpus, state.model_config, hyper, trace, checks)
        else:
            with trace.span("training.train"):
                result = train(corpus, state.model_config, hyper)
            out.losses, params = result.epoch_losses, result.params

    cells = []
    for n_enroll, n_trial in workload.trial_setups:
        condition = f"{n_enroll}+{n_trial}"
        with trace.span("evaluation.build_trials"):
            trials = build_trials(corpus, n_enroll, n_trial, seed=TRIAL_SEED)
        if traced:
            scored = replay_metric(corpus, trials, trace)
        else:
            with trace.span("metric.score"):
                scored = score_trials_metric(corpus, trials)
        trace.count("metric.trials", scored.scores.size)
        cells.append((condition, "metric", scored))
        if params is not None:
            if traced:
                scored = replay_embedding(params, corpus, trials, trace)
            else:
                with trace.span("embeddings.score"):
                    scored = score_trials_embedding(params, corpus, trials)
            trace.count("embeddings.trials", scored.scores.size)
            cells.append((condition, "embedding", scored))

    if workload.scores_io:
        with trace.span("evaluation.scores_io"):
            cells = [(c, m, scores_round_trip(s, state.workdir)) for c, m, s in cells]

    with trace.span("evaluation.eer"):
        table = evaluate(cells)
    for (condition, model, scored), cell in zip(cells, table.cells):
        out.scores[f"{model} {condition}"] = scored.scores
        out.eers[f"{model} {condition}"] = cell.eer
    return out, corpus


def scores_round_trip(scores: ScoreSet, workdir: Path) -> ScoreSet:
    path = workdir / "scores.txt"
    with open(path, "w", encoding="utf-8") as sink:
        write_scores(scores, sink)
    with open(path, "r", encoding="utf-8") as source:
        return read_scores(source)


def count_training_work(
    workload: Workload, state: State, corpus: Corpus
) -> tuple[int, int, float]:
    """Steps, unpadded phones and padded share of one ``train`` call."""
    if workload.model != "train":
        return 0, 0, 0.0
    hyper = TrainConfig(epochs=state.epochs, seed=TRAIN_SEED)
    speakers = sorted(corpus.by_speaker)
    steps = real = cells = 0
    for epoch in range(hyper.epochs):
        for batch in _epoch_batches(corpus, speakers, hyper, epoch):
            steps += 1
            real += int(batch.mask.sum())
            cells += batch.mask.size
    return steps, real, 1.0 - real / cells


# ---------------------------------------------------------------- traced replays


def replay_train(
    corpus: Corpus, config: ModelConfig, hyper: TrainConfig, trace: Trace, checks: Checks
) -> tuple[list[float], ModelParams]:
    """``train`` replayed call by call, with the same seeds and order.

    Per epoch: ``_epoch_batches``; per step: ``loss_and_grad`` and
    ``AdamState.step``. Each step also runs ``forward_with_cache`` on the
    same batch, and replays the convolutions on its cached block inputs,
    to split the step; neither changes the parameters.
    """
    speakers = sorted(corpus.by_speaker)
    params = init_model(config, np.random.default_rng([hyper.seed, 0]))
    optimizer = AdamState(params, hyper.learning_rate)
    losses: list[float] = []
    for epoch in range(hyper.epochs):
        with trace.span("training.batching"):
            batches = _epoch_batches(corpus, speakers, hyper, epoch)
        replay_batching(corpus, speakers, hyper, epoch, batches, trace, checks)
        loss_sum = 0.0
        item_count = 0
        for batch in batches:
            with trace.span("training.step"):
                with trace.span("model.forward"):
                    cache = forward_with_cache(params, batch)
                with trace.span("model.loss_and_grad"):
                    loss, grads = loss_and_grad(params, batch)
                replay_convolutions(params, cache, trace)
                with trace.span("training.adam"):
                    optimizer.step(params, grads)
            checks.record("every training loss is finite", np.isfinite(loss))
            loss_sum += loss * batch.size
            item_count += batch.size
        losses.append(loss_sum / max(item_count, 1))
    return losses, params


def replay_batching(
    corpus: Corpus,
    speakers: list[str],
    hyper: TrainConfig,
    epoch: int,
    batches: list[Batch],
    trace: Trace,
    checks: Checks,
) -> None:
    """Time the chunking and padding ``_epoch_batches`` just did.

    ``make_chunks`` runs per speaker on the epoch's per-speaker stream;
    ``pad_batch`` re-pads each batch's rows and must rebuild it exactly.
    """
    for spk_index, speaker in enumerate(speakers):
        rng = np.random.default_rng([hyper.seed, 1, epoch, spk_index])
        utterances = corpus.utterances_of(speaker)
        with trace.span("features.make_chunks"):
            make_chunks(utterances, corpus.inventory, rng, hyper.chunk_min, hyper.chunk_max)
    n_classes = corpus.inventory.size
    for batch in batches:
        lengths = batch.mask.sum(axis=1).astype(int)
        rows = [
            DurationFeatureSequence(batch.class_idx[i, :k], batch.lengths[i, :k], n_classes)
            for i, k in enumerate(lengths)
        ]
        with trace.span("features.pad_batch"):
            again = pad_batch(rows, batch.labels)
        checks.record(
            "pad_batch rebuilds each training batch exactly",
            all(
                np.array_equal(getattr(again, f), getattr(batch, f))
                for f in ("class_idx", "lengths", "mask", "labels")
            ),
        )


def replay_convolutions(params: ModelParams, cache, trace: Trace) -> None:
    """Run each block's convolution forward and backward on the step's inputs.

    The backward gets the block's activations as its output gradient: the
    cost depends only on the shapes.
    """
    cfg = params.config
    for i in range(cfg.n_blocks):
        x = cache.block_inputs[i]
        w = params.tensors[f"block{i}_w"]
        with trace.span(f"model.conv_fwd.block{i}"):
            model_module._conv_same(x, w, cfg.dilations[i])
        with trace.span(f"model.conv_bwd.block{i}"):
            model_module._conv_same_backward(x, w, cfg.dilations[i], cache.block_acts[i])
        k, c_in, c_out = w.shape
        # one multiply-add per (item, step, tap, in, out) forward; dW and dX
        # each cost as much again
        trace.count("model.conv_flop", 3 * 2 * x.shape[0] * x.shape[1] * k * c_in * c_out)


def unique_sets(trials: TrialList) -> list[tuple[str, ...]]:
    return list(
        dict.fromkeys(ids for t in trials.trials for ids in (t.enroll_utts, t.trial_utts))
    )


def _score_set(scores, trials: TrialList, polarity: str, model: str) -> ScoreSet:
    return ScoreSet(
        np.asarray(scores, dtype=np.float64),
        np.array([t.is_target for t in trials.trials], dtype=bool),
        polarity,
        tuple(",".join(t.enroll_utts) for t in trials.trials),
        tuple(",".join(t.trial_utts) for t in trials.trials),
        trials.n_enroll,
        trials.n_trial,
        model,
    )


def replay_metric(corpus: Corpus, trials: TrialList, trace: Trace) -> ScoreSet:
    """``score_trials_metric`` split into mean vectors and distances."""
    sets = unique_sets(trials)
    with trace.span("features.mean_vector"):
        vectors = {
            ids: mean_duration_vector([corpus.utterance(u) for u in ids], corpus.inventory)
            for ids in sets
        }
    trace.count("features.mean_vector_calls", len(sets))
    trace.count("metric.lookups", 2 * len(trials.trials))
    with trace.span("metric.distance"):
        scores = [
            duration_ratio_distance(vectors[t.enroll_utts], vectors[t.trial_utts])
            for t in trials.trials
        ]
    return _score_set(scores, trials, "smaller-is-similar", "metric")


def replay_embedding(
    params: ModelParams, corpus: Corpus, trials: TrialList, trace: Trace
) -> ScoreSet:
    """``score_trials_embedding`` split into embedding, inference and cosine."""
    sets = unique_sets(trials)
    vectors = {}
    for ids in sets:
        utterances = [corpus.utterance(u) for u in ids]
        with trace.span("embeddings.embed"):
            batch = pad_batch([sequence_from_utterances(utterances, params.config.n_classes)])
            with trace.span("model.infer"):
                embeddings, _ = forward(params, batch)
        trace.count("model.infer_rows", batch.size)
        vectors[ids] = embeddings[0]
    trace.count("embeddings.lookups", 2 * len(trials.trials))
    with trace.span("embeddings.cosine"):
        scores = [
            cosine_score(vectors[t.enroll_utts], vectors[t.trial_utts]) for t in trials.trials
        ]
    return _score_set(scores, trials, "larger-is-similar", "embedding")


# ---------------------------------------------------------------- output checks


def mismatches(have: np.ndarray | None, want: np.ndarray, tol: float) -> int:
    """Scores farther than ``tol`` from the expected ones; NaN never matches."""
    if have is None or have.shape != want.shape:
        return want.size
    return int(np.count_nonzero(~(np.abs(have - want) <= tol)))


def compare(expected: PassOutput, got: PassOutput, checks: Checks, traced: bool) -> None:
    """Record whether a pass reproduced the warm-up pass's outputs to the bit."""
    if expected.losses:
        checks.record(
            "traced replay loss log equals train's to the bit" if traced
            else "loss log equals the first pass's to the bit",
            got.losses == expected.losses,
            failed_ops=got.steps,
        )
    for key, want in expected.scores.items():
        bad = mismatches(got.scores.get(key), want, 0.0)
        checks.record(f"{key} scores equal the first pass's", bad == 0, f"{bad} differ", bad)
        checks.record(f"{key} EER equals the first pass's", got.eers.get(key) == expected.eers[key])


def check_first_pass(
    workload: Workload, state: State, out: PassOutput, corpus: Corpus, checks: Checks,
    reference: dict | None,
) -> None:
    """Checks made once, on the untimed warm-up pass."""
    if workload.model == "train":
        checks.record("every training loss is finite", bool(np.all(np.isfinite(out.losses))))
    checks.record(
        "parse finds every phone written",
        sum(len(u) for u in corpus.utterances) == state.n_phones,
    )
    expected = expected_trials(state.corpus_size, workload.trial_setups)
    for key, scores in out.scores.items():
        n = expected[key.split()[1]]
        checks.record(f"{key} trial count is {n}", scores.size == n)
        checks.record(f"{key} scores are finite", bool(np.all(np.isfinite(scores))))

    trials = build_trials(corpus, 8, 8, seed=TRIAL_SEED)
    want = reference_metric_scores(corpus, trials)
    bad = mismatches(out.scores["metric 8+8"], want, 1e-12)
    checks.record("metric 8+8 scores match a direct numpy computation", bad == 0,
                  f"{bad} differ", bad)
    if reference is not None:
        check_reference(out, reference, checks)


def expected_trials(size: CorpusSize, setups) -> dict[str, int]:
    """Trial counts ``build_trials`` must produce with 20 nontargets per speaker."""
    out = {}
    for n_enroll, n_trial in setups:
        per_speaker = (size.utts_per_speaker - n_enroll) // n_trial
        pool = (size.n_speakers - 1) * per_speaker
        out[f"{n_enroll}+{n_trial}"] = size.n_speakers * (per_speaker + min(20, pool))
    return out


def reference_metric_scores(corpus: Corpus, trials: TrialList) -> np.ndarray:
    """The ratio metric computed directly from the phone arrays."""
    n = corpus.inventory.size

    def profile(ids: tuple[str, ...]) -> np.ndarray:
        phones = np.array(
            [p for u in ids for p in corpus.utterance(u).phones], dtype=np.float64
        )
        classes = phones[:, 0].astype(np.int64)
        counts = np.zeros(n)
        sums = np.zeros(n)
        np.add.at(counts, classes, 1.0)
        np.add.at(sums, classes, phones[:, 1])
        return np.where(counts > 0, sums / np.maximum(counts, 1.0), phones[:, 1].mean())

    profiles = {ids: profile(ids) for ids in unique_sets(trials)}
    out = []
    for t in trials.trials:
        a, b = profiles[t.enroll_utts], profiles[t.trial_utts]
        out.append(1.0 - np.minimum(a / b, b / a).mean())
    return np.array(out)


def check_reference(out: PassOutput, reference: dict, checks: Checks) -> None:
    """Compare with the outputs committed for this workload and seed."""
    for key, want in reference["scores"].items():
        bad = mismatches(out.scores.get(key), np.asarray(want, dtype=np.float64), EMBED_TOLERANCE)
        checks.record(f"{key} scores match the reference within 1e-9", bad == 0,
                      f"{bad} differ", bad)
    for key, want in reference["eers"].items():
        have = out.eers.get(key, np.nan)
        ok = have == want if key.startswith("metric") else abs(have - want) <= EMBED_TOLERANCE
        checks.record(f"{key} EER matches the reference", ok, f"{have!r} vs {want!r}")
