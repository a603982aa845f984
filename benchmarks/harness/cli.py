"""Command line of the harness.

``python3 benchmarks/harness/run.py --workload W --seed N --seconds S --trace 0|1``
is the form ``BENCHMARK.json`` names: it prints every metric by name with
its unit and, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``PYTHONPATH=src`` the same is ``python -m benchmarks.harness …``, which
also offers ``aa``, ``golden`` and ``manifest``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Dict, List, Optional

from . import spec


def _terminate(signum, frame):
    # run the finally blocks that stop the served program
    raise SystemExit(128 + signum)


def print_result(result: Dict, metrics: List[spec.Metric]) -> None:
    """The human-readable block, then the driver's one-line JSON."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"traced {result['traced']}")
    for name, value in result["environment"].items():
        print(f"  env {name} = {value}")
    for note in result["notes"]:
        print(f"  note {note}")
    print(f"  ops_attempted = {result['attempted']}")
    print(f"  ops_failed = {result['failed']}")
    values = result["values"]  # empty when the run was not correct
    for metric in metrics:
        if metric.name in values:
            print(f"  {metric.name} = {values[metric.name]:.6g} {metric.unit}")
    if result["table"]:
        print(result["table"])
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in metrics if metric.name in values
        },
    }
    print(json.dumps(line))


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    # a harness started as a background job inherits SIGINT as ignored, and
    # so would the served program, which is stopped with SIGINT; a handler
    # here means every child starts with the default disposition again
    signal.signal(signal.SIGINT, signal.default_int_handler)
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = ("run", "aa", "golden", "manifest")
    if not argv or argv[0] not in commands:
        argv.insert(0, "run")  # the driver's form has no sub-command

    parser = argparse.ArgumentParser(prog="benchmarks.harness", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="one run of one workload")
    p_run.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: per-layer metrics and the layer table instead of "
                            "the end-to-end metrics")
    p_aa = sub.add_parser("aa", help="A/A: interleaved sets of runs of the same code")
    p_aa.add_argument("--sets", type=int, default=2)
    sub.add_parser("golden", help="recompute golden.json with the in-memory evaluator")
    sub.add_parser("manifest", help="print the content of BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.command == "manifest":
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.command == "golden":
        from . import golden
        from .fixture import ensure_fixture

        count = golden.rewrite(ensure_fixture().corpus)
        print(f"pinned {count} answers in {golden.GOLDEN_PATH}")
        return 0
    if args.command == "aa":
        from .aa import run_aa

        return run_aa(args.sets)

    from .env import pin_to_one_cpu
    from .measure import measure

    pin_to_one_cpu()
    traced = bool(args.trace)
    result = measure(spec.WORKLOADS[args.workload], args.seed, args.seconds, traced)
    print_result(result, spec.PER_LAYER if traced else spec.END_TO_END)
    return 0 if result["correct"] else 1
