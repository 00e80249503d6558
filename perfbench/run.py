"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-serial --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, in turn

Workloads: replay-serial, sweep-parallel, validated-replay, serve-open
(see BENCHMARK.json for why each exists and LAYERS.md for what the
traced run wraps).  The program is imported from the checkout's own
``src/``.  The run prints a table of every metric by name and unit,
then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a traced run.  The exit code is 1 when an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

from checkout import use_checkout_sources

WORKLOADS = ("replay-serial", "sweep-parallel", "validated-replay", "serve-open")
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_rate", "1/s"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=7,
                        help="scenario seed the inputs are built from")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed region runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return _run_all(args)
    use_checkout_sources()

    if args.workload == "serve-open":
        from serve_open import run_serve_open

        result = run_serve_open(args.seed, args.seconds, bool(args.trace))
    else:
        from replays import run_plan

        result = run_plan(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value, unit in result.table:
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if args.trace:
        from layers import PER_LAYER

        metrics = {name: {"value": result.per_layer[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
        for name, unit, _better in PER_LAYER:
            print(f"  {name:<28} {result.per_layer[name]:>14.6g} {unit}")
    else:
        metrics = {name: {"value": result.metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
    for line in result.notes:
        print(line)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result.problems and all(
        math.isfinite(entry["value"]) for entry in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so none inherits another's heap."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run([
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
