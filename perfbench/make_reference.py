"""Regenerate the reference outputs the score-acc workload is checked against.

    python3 perfbench/make_reference.py

Writes ``reference/score-acc-seed0.json``: every score and EER of one
score-acc pass at ``--seed 0``. Rerun it only for a change that is meant
to alter those outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

WORKLOAD = "score-acc"
SEED = 0


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads as wl
    from tracing import Checks, Trace

    checks = Checks()
    trace = Trace()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        state = wl.setup(wl.WORKLOADS[WORKLOAD], "full", SEED, Path(tmp), trace, checks)
        out, _ = wl.run_pass(wl.WORKLOADS[WORKLOAD], state, trace, checks)
    if not checks.passed:
        print(json.dumps(checks.results, indent=1), file=sys.stderr)
        return 1
    reference = {
        "workload": WORKLOAD,
        "seed": SEED,
        "synth_seed": state.synth_seed,
        "eers": out.eers,
        "scores": {key: [float(x) for x in scores] for key, scores in out.scores.items()},
    }
    path = Path(__file__).parent / "reference" / f"{WORKLOAD}-seed{SEED}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=0) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
