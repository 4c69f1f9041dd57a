"""Seeded benchmark of the durasv pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload train-acc --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates rounds of the same pipeline with rounds of its
traced replay, and reports the per-module metrics. The last line of standard output is the
result object; the lines before it hold the full report (environment,
per-metric samples and spread, every output check). The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Cap every BLAS thread count at the CPUs this process may use.

    Must run before numpy is imported; returns the pinned value.
    """
    nproc = len(os.sched_getaffinity(0))
    pinned = nproc
    for var in BLAS_THREAD_VARS:
        try:
            pinned = min(pinned, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(pinned)
    return pinned


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("train-acc", "score-acc", "ingest-scale")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks every corpus and the epoch count to a minimum",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pinned = pin_blas_threads()
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import durasv
    except ImportError as exc:
        print(f"cannot import durasv from {source}: {exc}", file=sys.stderr)
        return 2
    if not Path(durasv.__file__).resolve().is_relative_to(source):
        print(f"durasv imported from {durasv.__file__}, not {source}", file=sys.stderr)
        return 2

    import harness

    return harness.run(args, pinned)


if __name__ == "__main__":
    sys.exit(main())
