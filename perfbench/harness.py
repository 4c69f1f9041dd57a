"""Measurement loop, metric definitions, host record and the result line.

Everything is timed in rounds: a round repeats one unit of work (a setup
or a pipeline pass) until it has lasted ``ROUND_SECONDS``, and gives one
sample per metric, the mean time per unit. The host's speed swings by a
third for seconds at a time, and a median of samples much shorter than
that flips between the fast and the slow speed from run to run. A run
first sets up once untimed, then times setup rounds (``setup_s`` is the
median over them), then runs one untimed warm-up pass whose outputs are
checked and become the expected outputs, then repeats timed rounds until
``--seconds`` have elapsed. With ``--trace 1`` plain and traced rounds
alternate, and the tracing overhead comes from neighbouring pairs.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np
from durasv.alignment import parse_alignment

import workloads as wl
from tracing import Checks, Trace, summary

HERE = Path(__file__).resolve().parent
ROUND_SECONDS = 3.0
# setup rounds repeat until this many seconds have passed, and at least
# SETUP_ROUNDS times
SETUP_SECONDS = 9.0
SETUP_ROUNDS = 3
# tracemalloc slows parsing about fivefold; a prefix of the file gives
# the same bytes per phone
TRACEMALLOC_LINES = 200_000

# Every workload reports every end-to-end metric, so only metrics that
# are defined, nonzero and steady on all three are listed here; the
# stage throughputs are in the report and in the per-layer metrics.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "eer_8u": "fraction",
}

BLOCKS = range(3)  # the default ModelConfig has three conv blocks
PER_LAYER = {
    "alignment.parse_s": "s",
    "alignment.phones": "count",
    "alignment.bytes_per_phone": "B",
    "alignment.phones_per_s": "1/s",
    "features.make_chunks_s": "s",
    "features.pad_batch_s": "s",
    "features.pad_fraction": "fraction",
    "features.mean_vector_s": "s",
    "features.mean_vector_calls": "count",
    "model.steps": "count",
    "model.step_ms_p50": "ms",
    "model.step_ms_tail": "ms",
    "model.step_ms_tail_pct": "%",
    "model.forward_s": "s",
    "model.backward_s": "s",
    **{f"model.conv_fwd_s.block{i}": "s" for i in BLOCKS},
    **{f"model.conv_bwd_s.block{i}": "s" for i in BLOCKS},
    "model.step_rest_s": "s",
    "model.conv_gflop_per_step": "GFLOP",
    "model.conv_gflop_per_s": "GFLOP/s",
    "model.infer_calls": "count",
    "model.infer_s": "s",
    "model.infer_rows_per_call": "count",
    "training.batching_s": "s",
    "training.adam_s": "s",
    "training.phones_per_s": "1/s",
    "embeddings.embed_s": "s",
    "embeddings.cosine_s": "s",
    "embeddings.cache_hit_ratio": "fraction",
    "embeddings.trials_per_s": "1/s",
    "metric.distance_s": "s",
    "metric.cache_hit_ratio": "fraction",
    "metric.trials_per_s": "1/s",
    "evaluation.build_trials_s": "s",
    "evaluation.eer_s": "s",
    "evaluation.scores_io_s": "s",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.bytes": "B",
    "synth.generate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def environment(pinned: int) -> dict:
    config = np.show_config(mode="dicts")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        "blas_threads_pinned": pinned,
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


def load_reference(args) -> dict | None:
    path = HERE / "reference" / f"{args.workload}-seed{args.seed}.json"
    if args.size != "full" or not path.exists():
        return None
    return json.loads(path.read_text())


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(args, pinned: int) -> int:
    workload = wl.WORKLOADS[args.workload]
    checks = Checks()
    trace = Trace()
    # short runs still get about five rounds
    round_seconds = min(ROUND_SECONDS, args.seconds / 5)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        state = time_setup(workload, args, Path(tmp), round_seconds, trace, checks)

        with trace.span("warmup"):
            first, corpus = wl.run_pass(workload, state, trace, checks)
        steps, trained_phones, pad_fraction = wl.count_training_work(workload, state, corpus)
        first.steps = steps
        wl.check_first_pass(workload, state, first, corpus, checks, load_reference(args))
        del corpus
        attempted = first.operations

        kinds = (("round", False), ("traced_round", True)) if args.trace else (("round", False),)
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            for kind, traced in kinds:
                outs = timed_round(
                    trace, kind, round_seconds,
                    lambda: wl.run_pass(workload, state, trace, checks, traced)[0],
                )
                for out in outs:
                    out.steps = steps
                    wl.compare(first, out, checks, traced)
                    attempted += out.operations
        bytes_per_phone = parse_memory(state) if args.trace else 0.0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "synth_seed": state.synth_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(pinned),
        "epochs": state.epochs if workload.model == "train" else 0,
        "phones": state.n_phones,
    }
    e2e = end_to_end(trace, first, trained_phones)
    report["end_to_end"] = e2e
    if args.trace:
        report["per_layer"], report["step_split"] = per_layer(
            trace, state, e2e, pad_fraction, bytes_per_phone, checks
        )
        chosen, units = report["per_layer"], PER_LAYER
    else:
        chosen, units = {name: e2e[name]["median"] for name in END_TO_END}, END_TO_END
    report["checks"] = checks.results
    report["error_rate"] = ratio(checks.failed_operations, attempted)
    result = {
        "correct": checks.passed,
        "attempted": attempted,
        "failed": checks.failed_operations,
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report, indent=1, default=float))
    print(json.dumps(result), flush=True)
    return 0 if checks.passed else 1


def timed_round(trace: Trace, kind: str, seconds: float, work) -> list:
    """Call ``work`` until the round has lasted ``seconds``; returns its results."""
    results = []
    with trace.span(kind) as span:
        while not results or perf_counter() - span.start < seconds:
            results.append(work())
        trace.count("passes", len(results))
    return results


def time_setup(workload, args, workdir: Path, round_seconds: float, trace: Trace, checks):
    """One untimed setup, then setup rounds; each round gives one sample.

    Rounds repeat until ``SETUP_SECONDS`` (at most half of ``--seconds``)
    have passed and at least ``SETUP_ROUNDS`` ran.
    """
    def work() -> None:
        # every setup writes the same files, so the untimed setup's state
        # serves the run; dropping the others keeps them out of peak_rss_mb
        wl.setup(workload, args.size, args.seed, workdir, trace, checks)

    with trace.span("setup_warmup"):
        state = wl.setup(workload, args.size, args.seed, workdir, trace, checks)
    budget = min(SETUP_SECONDS, args.seconds / 2)
    start = perf_counter()
    while len(trace.roots("setup")) < SETUP_ROUNDS or perf_counter() - start < budget:
        timed_round(trace, "setup", round_seconds, work)
    return state


def parse_memory(state) -> float:
    """Bytes the parsed corpus keeps per phone, by tracemalloc."""
    with open(state.alignment_path, "r", encoding="utf-8") as source:
        lines = list(itertools.islice(source, TRACEMALLOC_LINES))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = parse_alignment(lines, state.inventory)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / sum(len(u) for u in corpus.utterances)


def end_to_end(trace: Trace, first: wl.PassOutput, trained_phones: int) -> dict:
    """Sample summaries of the end-to-end metrics and the stage throughputs.

    One sample per plain (untraced) round.
    """
    plain = trace.roots("round")
    c = trace.counters

    def per_pass(counter: str, span: str) -> list[float]:
        return [ratio(c[r][counter], trace.total(r, span)) for r in plain]

    samples = {
        "setup_s": [trace.spans[r].seconds / c[r]["passes"] for r in trace.roots("setup")],
        "wall_s": [trace.spans[r].seconds / c[r]["passes"] for r in plain],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "parse_phones_per_s": per_pass("alignment.phones", "alignment.parse"),
        "score_metric_trials_per_s": per_pass("metric.trials", "metric.score"),
        "eer_8u": [first.eer_8u],
    }
    if trained_phones:
        samples["train_phones_per_s"] = [
            ratio(trained_phones, trace.total(r, "training.train")) for r in plain
        ]
    if "embedding 8+8" in first.eers:
        samples["score_embed_trials_per_s"] = per_pass("embeddings.trials", "embeddings.score")
    return {name: summary(values) for name, values in samples.items()}


def per_layer(
    trace: Trace, state, e2e: dict, pad_fraction: float, bytes_per_phone: float,
    checks: Checks,
) -> tuple[dict, dict]:
    """Per-module metrics from the traced passes (and the setups).

    ``*_s`` metrics of a module are seconds per pass, medians over the
    traced rounds; ``model.*`` times of a training step are per step,
    medians over every traced step. Stage throughputs come from the
    plain passes of the same run. A module the workload never calls
    reads 0.
    """
    traced = trace.roots("traced_round")
    plain = trace.roots("round")
    setups = trace.roots("setup")
    c = trace.counters

    def passes(root: int) -> float:
        return c[root]["passes"] or 1  # a setup counts as one

    def seconds(name: str, roots=traced) -> float:
        return statistics.median(trace.total(r, name) / passes(r) for r in roots)

    def counter(name: str) -> float:
        return statistics.median(c[r][name] / passes(r) for r in traced)

    def spans_per_pass(name: str) -> float:
        return statistics.median(
            sum(1 for s in trace.spans if s.root == r and s.name == name) / passes(r)
            for r in traced
        )

    step_parts: dict[str, list[float]] = {}
    for i, span in enumerate(trace.spans):
        if span.name != "training.step":
            continue
        parts = {child.name: child.seconds for child in trace.children(i)}
        step = parts["model.loss_and_grad"]
        convs = sum(v for k, v in parts.items() if k.startswith("model.conv_"))
        for name, value in (
            ("step_ms", step * 1000),
            ("model.forward_s", parts["model.forward"]),
            ("model.backward_s", step - parts["model.forward"]),
            ("model.step_rest_s", step - convs),
            *((f"model.conv_{d}_s.block{b}", parts[f"model.conv_{d}.block{b}"])
              for d in ("fwd", "bwd") for b in BLOCKS if f"model.conv_{d}.block{b}" in parts),
        ):
            step_parts.setdefault(name, []).append(value)
    step_ms = summary(step_parts.pop("step_ms")) if step_parts else None
    flop = sum(c[r]["model.conv_flop"] for r in traced)
    conv_seconds = sum(
        s.seconds for s in trace.spans if s.root in traced and s.name.startswith("model.conv_")
    )
    n_steps = len(step_parts.get("model.forward_s", []))

    def plain_median(name: str) -> float:
        return e2e[name]["median"] if name in e2e else 0.0

    infer_calls = spans_per_pass("model.infer")
    embed_lookups = counter("embeddings.lookups")
    metric_lookups = counter("metric.lookups")
    values = {
        "alignment.parse_s": seconds("alignment.parse"),
        "alignment.phones": counter("alignment.phones"),
        "alignment.bytes_per_phone": bytes_per_phone,
        "alignment.phones_per_s": plain_median("parse_phones_per_s"),
        "features.make_chunks_s": seconds("features.make_chunks"),
        "features.pad_batch_s": seconds("features.pad_batch"),
        "features.pad_fraction": pad_fraction,
        "features.mean_vector_s": seconds("features.mean_vector"),
        "features.mean_vector_calls": counter("features.mean_vector_calls"),
        "model.steps": n_steps,
        "model.step_ms_p50": step_ms["median"] if step_ms else 0.0,
        "model.step_ms_tail": step_ms["tail"] if step_ms else 0.0,
        "model.step_ms_tail_pct": step_ms["tail_pct"] if step_ms else 0,
        **{name: statistics.median(v) for name, v in step_parts.items()},
        "model.conv_gflop_per_step": ratio(flop / 1e9, n_steps),
        "model.conv_gflop_per_s": ratio(flop / 1e9, conv_seconds),
        "model.infer_calls": infer_calls,
        "model.infer_s": seconds("model.infer"),
        "model.infer_rows_per_call": ratio(counter("model.infer_rows"), infer_calls),
        "training.batching_s": seconds("training.batching"),
        "training.adam_s": seconds("training.adam"),
        "training.phones_per_s": plain_median("train_phones_per_s"),
        "embeddings.embed_s": seconds("embeddings.embed"),
        "embeddings.cosine_s": seconds("embeddings.cosine"),
        "embeddings.cache_hit_ratio": (
            1.0 - ratio(spans_per_pass("embeddings.embed"), embed_lookups) if embed_lookups else 0.0
        ),
        "embeddings.trials_per_s": plain_median("score_embed_trials_per_s"),
        "metric.distance_s": seconds("metric.distance"),
        "metric.cache_hit_ratio": (
            1.0 - ratio(counter("features.mean_vector_calls"), metric_lookups)
        ),
        "metric.trials_per_s": plain_median("score_metric_trials_per_s"),
        "evaluation.build_trials_s": seconds("evaluation.build_trials"),
        "evaluation.eer_s": seconds("evaluation.eer"),
        "evaluation.scores_io_s": seconds("evaluation.scores_io"),
        "model_io.save_s": seconds("model_io.save", setups),
        "model_io.load_s": seconds("model_io.load", setups),
        "model_io.bytes": state.model_bytes,
        "synth.generate_s": seconds("synth.generate", setups),
        "trace.wall_s": statistics.median(trace.spans[r].seconds / passes(r) for r in traced),
        # plain and traced rounds alternate; pair each traced round with
        # the plain round just before it
        "trace.overhead_s": statistics.median(
            trace.spans[t].seconds / passes(t) - trace.spans[p].seconds / passes(p)
            for p, t in zip(plain, traced)
        ),
    }
    split = {}
    if step_ms:
        # step_rest_s is the step minus the replays, so this sum gives the
        # step median back up to the difference between a median of sums
        # and a sum of medians; it shows the split, it does not test it
        conv_fwd = sum(values[f"model.conv_fwd_s.block{b}"] for b in BLOCKS)
        conv_bwd = sum(values[f"model.conv_bwd_s.block{b}"] for b in BLOCKS)
        split = {
            "step_ms": step_ms,
            "conv_fwd_ms": 1000 * conv_fwd,
            "conv_bwd_ms": 1000 * conv_bwd,
            "rest_ms": 1000 * values["model.step_rest_s"],
            "conv_replays_plus_rest_ms": 1000 * (conv_fwd + conv_bwd + values["model.step_rest_s"]),
        }
        checks.record(
            "forward conv replays take no longer than the forward pass",
            conv_fwd <= values["model.forward_s"],
            f"{conv_fwd:.4g} s > {values['model.forward_s']:.4g} s",
            n_steps,
        )
        checks.record(
            "conv replays take no longer than loss_and_grad",
            values["model.step_rest_s"] >= 0,
            f"model.step_rest_s is {values['model.step_rest_s']:.4g} s",
            n_steps,
        )
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}, split
