"""A/A: does the benchmark agree with itself?

Runs interleaved sets of runs of the *same* code (set 0, set 1, set 0, …,
another seed each run) and prints, for every (workload, metric) pairing,
how far the set medians disagree — in the direction that would read as a
regression — and the widest spread of a set (interquartile distance over
median, the driver's rule), both beside the metric's bound.  Exit status
1 if any pairing disagrees by more than its bound, or spreads wider than
it (``setup_s`` excepted, as in the driver's rule): the fix is then more
rounds/passes or dropping the metric, never a tighter-looking bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from . import spec
from .stats import iqr_share


#: Runs per set and workload: what the driver's acceptance rule takes.
RUNS_PER_SET = 10


def one_run(workload: str, seed: int) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worse_by(metric: spec.Metric, first: float, second: float) -> float:
    """Relative amount by which *second* is worse than *first* (≤ 0: not worse)."""
    change = (second - first) / first
    return change if metric.better == "lower" else -change


def run_aa(sets: int) -> int:
    names = list(spec.WORKLOADS)
    values: Dict[str, List[Dict[str, List[float]]]] = {
        name: [{m.name: [] for m in spec.END_TO_END} for _ in range(sets)] for name in names
    }
    seed = 0
    for _ in range(RUNS_PER_SET):
        for set_number in range(sets):
            for name in names:
                seed += 1
                metrics = one_run(name, seed)
                for metric, value in metrics.items():
                    values[name][set_number][metric].append(value)
                print(f"set {set_number} {name} seed {seed}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                      file=sys.stderr)

    exceeded = 0
    print(f"{'workload':<15}{'metric':<22}" + "".join(
        f"{'median ' + str(s):>12}" for s in range(sets))
        + f"{'disagree':>10}{'bound':>7}{'spread':>8}")
    for name in names:
        for metric in spec.END_TO_END:
            per_set = [values[name][s][metric.name] for s in range(sets)]
            medians = [statistics.median(v) for v in per_set]
            # worst ordered pair: either set may play the parent
            disagree = max(
                worse_by(metric, a, b) for a in medians for b in medians
            )
            spread = max(iqr_share(v) for v in per_set)
            flag = ""
            if disagree > metric.bound or (spread > metric.bound and metric.name != "setup_s"):
                exceeded += 1
                flag = "  EXCEEDS"
            print(f"{name:<15}{metric.name:<22}"
                  + "".join(f"{m:>12.5g}" for m in medians)
                  + f"{disagree:>10.2%}{metric.bound:>7.0%}{spread:>8.2%}{flag}")
    print(f"{exceeded} pairing(s) exceed their bound")
    return 1 if exceeded else 0
