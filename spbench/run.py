"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 spbench/run.py --workload {render-frames,serve-render} \\
        --seed N --seconds S --trace {0,1}

The seed generates the workload's inputs; the same seed gives the same
inputs.  ``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``spbench/metrics.py``).  Correctness checks run after
the timed window; a failed check prints ``"correct": false`` and exits 1.
With ``--trace 1`` a Chrome trace-event file is written under
``spbench-out/``.  The program is imported from ``src/`` of the checkout;
without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above marks process start)
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "spbench-out"


def parse_args(argv=None) -> argparse.Namespace:
    from spbench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args: argparse.Namespace, started: float) -> dict:
    if args.workload == "render-frames":
        from spbench import render_frames

        return render_frames.run(args.seed, args.seconds, bool(args.trace), started)
    from spbench import serving

    return serving.run(args.seed, args.seconds, bool(args.trace), started)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from spbench.common import host_record, log
    from spbench.metrics import END_TO_END, PER_LAYER, report

    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    outcome = run_workload(args, STARTED)
    checks = outcome["checks"]
    for problem in checks.problems:
        log(f"CHECK FAILED: {problem}")
    if outcome.get("tracer") is not None:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        outcome["tracer"].write_chrome(path)
        log(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({"host": host_record(), "samples": outcome["samples"]}))
    result = {
        "correct": checks.correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": report(outcome["values"], PER_LAYER if args.trace else END_TO_END),
    }
    print(json.dumps(result), flush=True)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
