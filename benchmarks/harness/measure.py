"""One run of one workload → one result (metrics, counts, environment).

An untraced run measures the workload's end-to-end metrics, a traced run
every per-layer metric (see ``_trace``).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from . import env, golden, layers, serving, spec
from .fixture import ensure_fixture
from .server import OUT, REPO_ROOT, SRC, program_env
from .spec import END_TO_END, PER_LAYER, SETUP_REPEATS, Workload
from .stats import fastest, percentile, pointwise_fastest, spread

#: Plain repeats beside the traced one in a traced run: their ratio is the
#: tracing overhead, and two plain pipeline rounds witness the noise.
TRACED_RUN_PASSES = 1
TRACED_RUN_ROUNDS = 2


def measure(workload: Workload, seed: int, seconds: int, traced: bool) -> Dict:
    OUT.mkdir(exist_ok=True)
    environment = env.start_block()
    notes: List[str] = []
    if traced:
        body = _trace(workload, seed, notes, environment["calibration_ms"])
        environment["passes"], environment["rounds"] = TRACED_RUN_PASSES, TRACED_RUN_ROUNDS
    elif workload.serving:
        environment["passes"] = workload.repeats_for(seconds)
        body = _measure_serving(workload, seed, environment["passes"], notes)
    else:
        environment["rounds"] = workload.repeats_for(seconds)
        body = _measure_pipeline(environment["rounds"], notes)
    environment["loadavg_end"] = env.loadavg()
    failed = body["failed"] > 0 or bool(body["problems"])
    values = {}
    if not failed:
        wanted = PER_LAYER if traced else END_TO_END
        values = {metric.name: float(body["values"][metric.name]) for metric in wanted}
        if not traced:  # raw samples, for looking at a run after the fact
            (OUT / f"raw-{workload.name}-{seed}.json").write_text(json.dumps(body["raw"]))
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "environment": environment,
        "notes": notes + body["problems"],
        "attempted": body["attempted"],
        "failed": body["failed"],
        "correct": not failed,
        "values": values,
        "table": body.get("table", ""),
    }


def _trace(workload: Workload, seed: int, notes: List[str], calibration_ms: float) -> Dict:
    """Both traced bodies: the write path, and *workload* served (``serve_cold``
    when the workload is the write path itself).

    Every traced run has to print every per-layer metric, so each one times
    the layers of both sides; the two sides' metric names are disjoint.  The
    layer table and the tracing overhead are those of the workload's own body.
    """
    served = workload if workload.serving else spec.WORKLOADS["serve_cold"]
    write = _measure_pipeline(TRACED_RUN_ROUNDS, notes, traced=True)
    read = _measure_serving(served, seed, TRACED_RUN_PASSES, notes, traced=True)
    body = {
        "attempted": write["attempted"] + read["attempted"],
        "failed": write["failed"] + read["failed"],
        "problems": write["problems"] + read["problems"],
        "values": {},
    }
    if body["failed"] or body["problems"]:
        return body
    own = read if workload.serving else write
    body["values"] = {**write["values"], **read["values"], **own["own"],
                      "harness.calibration_ms": calibration_ms}
    body["table"] = own["table"]
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "values": body["values"],
        "write": write["payload"], "read": read["payload"],
    }))
    return body


# -- serving -------------------------------------------------------------------


def _measure_serving(workload: Workload, seed: int, passes: int, notes: List[str],
                     traced: bool = False) -> Dict:
    fixture = ensure_fixture()
    run = serving.run(workload, fixture, seed, passes, traced)
    if run.passes:
        elapsed = [p.elapsed for p in run.passes]
        notes.append(f"{workload.name}: passes took " + " ".join(f"{e:.2f}" for e in elapsed)
                     + f" s (fastest: pass {fastest(elapsed)}, spread {spread(elapsed):.3f}); "
                     f"client CPU share {run.passes[0].client_cpu_s / elapsed[0]:.3f}; "
                     "calibration before each "
                     + " ".join(f"{p.calibration_ms:.1f}" for p in run.passes) + " ms")
    body = {
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "problems": run.verify_failures[:10],
        "values": {},
    }
    if run.failed or not run.passes:
        return body
    if traced:
        body["values"], body["own"], body["table"], body["payload"] = (
            layers.serving_layers(run, fixture, seed))
    else:
        body["values"] = serving.end_to_end(run, fixture)
        body["raw"] = serving.raw_samples(run)
    return body


# -- pipeline ------------------------------------------------------------------


def _pipeline_command(workdir, rounds: int, traced: bool = False) -> List[str]:
    argv = [sys.executable, "-m", "benchmarks.harness.pipeline",
            "--workdir", str(workdir), "--rounds", str(rounds)]
    if traced:
        argv.append("--trace")
    return argv


def _pipeline_env() -> dict:
    environment = program_env()
    environment["PYTHONPATH"] = os.pathsep.join([str(SRC), str(REPO_ROOT)])
    return environment


def _measure_pipeline(rounds: int, notes: List[str], traced: bool = False) -> Dict:
    workdir = OUT / f"pipeline-{os.getpid()}"
    setups = []
    try:
        # set-up: a fresh interpreter importing the program, ready to build
        for _ in range(serving.TRACED_SETUP_REPEATS if traced else SETUP_REPEATS):
            started = time.perf_counter()
            subprocess.run(_pipeline_command(workdir, 0), env=_pipeline_env(),
                           cwd=str(REPO_ROOT), check=True, stdout=subprocess.DEVNULL)
            setups.append(time.perf_counter() - started)
        done = subprocess.run(
            _pipeline_command(workdir, rounds, traced),
            env=_pipeline_env(), cwd=str(REPO_ROOT), check=True, stdout=subprocess.PIPE,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    child = json.loads(done.stdout)
    results = child["rounds"]

    expected = golden.load()["pipeline"]
    runs = expected["runs"]
    problems = []
    for number, result in enumerate(results):
        if result["invariants"] != expected:
            problems.append(f"round {number}: invariants {result['invariants']} != {expected}")
        if len(result["run_steps"]) != runs:
            problems.append(f"round {number}: {len(result['run_steps'])} steps for {runs} runs")
        for key in ("files_sha", "store_bytes"):
            if result[key] != results[0][key]:
                problems.append(f"round {number}: {key} differs from round 0")
    body = {
        "attempted": runs * len(results),
        "failed": runs * len({p.split(":")[0] for p in problems}),
        "problems": problems,
        "values": {},
    }
    notes.append(f"pipeline_write: build rounds spread "
                 f"{spread([r['build_s'] for r in results]):.3f}, ingest rounds spread "
                 f"{spread([r['ingest_s'] for r in results]):.3f}; calibration before each "
                 + " ".join(f"{r['calibration_ms']:.1f}" for r in results) + " ms")
    if problems:
        return body
    if traced:
        body["values"], body["own"], body["table"], body["payload"] = (
            layers.pipeline_layers(child))
        return body

    # one operation is one run taken through both stages: built and written,
    # then parsed and applied (and spilled, when its turn comes); position i
    # is the same run in every round, taken at its fastest
    floors = pointwise_fastest([r["run_steps"] for r in results])
    # what a round does outside the per-run steps: the manifest; compaction,
    # the path index and close
    tail = min(r["build_s"] + r["ingest_s"] - sum(r["run_steps"]) for r in results)
    last = results[-1]
    body["values"] = {
        "setup_s": statistics.median(setups),
        "ops_per_s_ceiling": runs / (sum(floors) + tail),
        "latency_floor_ms_p50": percentile(floors, 0.50) * 1e3,
        "latency_floor_ms_p99": percentile(floors, 0.99) * 1e3,
        "peak_rss_mb": child["peak_rss_mb"],
        "store_bytes_per_quad": last["store_bytes"] / last["invariants"]["quads"],
    }
    body["raw"] = child
    return body
