"""Scale-out gate: peak RSS sublinear in corpus size, interning never stalls.

Each scale point runs in its **own subprocess** so
``resource.getrusage(RUSAGE_SELF).ru_maxrss`` is a clean peak-RSS
measurement of exactly one streaming build → ingest → Q1–Q6 pipeline at
that scale.  A deliberately small spill budget forces the external-merge
path at every point, so the gate certifies the bounded-memory discipline
rather than the in-memory fast path.  The contract: peak RSS grows
**sublinearly** in corpus size (the pending set, segment merge, and
path-index build are all bounded) and Q1–Q6 still answer at every scale.

Also gated: dictionary intern throughput across incremental folds — the
fold must never stall for seconds at a hash-table growth boundary, which
is what the per-fold duration check pins.

A plain script — no pytest entry point, no artifact
(``_artifacts/scale_bench.json`` is a frozen record of the last run of
the bench this gate was cut from); timings are ``benchmarks/harness``'s job::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: Scale points for the full gate (>= 3, per the scale-out issue) and
#: for the CI smoke.  The spill budget keeps the pending set well
#: below one scale point's quad count, so every point exercises spills.
DEFAULT_SCALES = (1, 2, 4)
SMOKE_SCALES = (1, 2)
CHILD_SPILL_BUDGET = 25_000

#: Peak-RSS guard: across an N× corpus, peak RSS may grow at most
#: 1 + SLOPE·N — markedly sublinear (a linear pipeline would track N
#: itself).  The residual slope covers what legitimately scales with
#: corpus size at O(runs), not O(quads): dictionary mmaps the merge
#: touches and manifest entries.
RSS_SUBLINEAR_SLOPE = 0.3

#: Intern-throughput floor (terms/s, cold dictionary, folds included)
#: and the per-fold stall ceiling — generous for CI runners; an
#: accidental O(n) rescan per fold blows through both.
INTERN_TERMS_PER_S_FLOOR = 30_000
MAX_FOLD_SECONDS = 2.0

_SRC = Path(__file__).resolve().parent.parent / "src"


def _exemplar_queries_from_manifest(root: Path) -> dict:
    """The Q1–Q6 texts instantiated from a written corpus manifest.

    Mirrors :func:`repro.queries.exemplar_queries` without materializing
    a :class:`Corpus`: the fixtures (first multi-run ``t-`` template,
    first non-failed Taverna/Wings runs) are all in ``manifest.json``.
    """
    from repro.queries import (
        Q1_WORKFLOW_RUNS,
        q2_runs_of_template,
        q3_template_io,
        q4_process_runs,
        q5_who_executed,
        q6_services_executed,
        taverna_workflow_iri,
    )
    from repro.taverna.engine import TAVERNA_RUN_NS
    from repro.wings.engine import OPMW_EXPORT_NS

    traces = json.loads((root / "manifest.json").read_text())["traces"]
    runs_of = {}
    for trace in traces:
        runs_of.setdefault(trace["template_id"], []).append(trace)
    template_id = next(
        tid for tid, runs in runs_of.items()
        if tid.startswith("t-") and len(runs) > 1
    )
    template_name = runs_of[template_id][0]["template_name"]
    taverna_trace = next(
        t for t in traces if t["system"] == "taverna" and t["status"] != "failed"
    )
    wings_trace = next(
        t for t in traces if t["system"] == "wings" and t["status"] != "failed"
    )
    taverna_template_iri = taverna_workflow_iri(template_id, template_name)
    taverna_run_iri = TAVERNA_RUN_NS.term(f"{taverna_trace['run_id']}/")
    wings_run_iri = OPMW_EXPORT_NS.term(
        f"WorkflowExecutionAccount/{wings_trace['run_id']}"
    )
    return {
        "Q1": Q1_WORKFLOW_RUNS,
        "Q2": q2_runs_of_template(taverna_template_iri),
        "Q3": q3_template_io(taverna_template_iri),
        "Q4": q4_process_runs(taverna_run_iri),
        "Q5": q5_who_executed(taverna_run_iri),
        "Q6": q6_services_executed(wings_run_iri),
    }


def _child_main(scale: int, workdir: str) -> None:
    """One scale point, measured in this (fresh) process."""
    import resource

    from repro.corpus import CorpusBuilder, build_and_write
    from repro.sparql import QueryEngine
    from repro.store import QuadStore, StoreDataset, ingest_corpus

    workdir = Path(workdir)
    root = workdir / "corpus"
    build_and_write(CorpusBuilder(seed=2013, scale=scale), root)
    store = QuadStore(workdir / "store", spill_quad_budget=CHILD_SPILL_BUDGET)
    ingest_corpus(store, root)

    engine = QueryEngine(StoreDataset(store))
    rows = {}
    for name, text in _exemplar_queries_from_manifest(root).items():
        result = engine.query(text)
        rows[name] = 1 if isinstance(result, bool) else len(result)
    quad_count = store.quad_count
    store.close()

    statistics = json.loads((root / "manifest.json").read_text())["statistics"]
    print(json.dumps({
        "scale": scale,
        "runs": statistics["runs"],
        "triples": statistics["triples"],
        "quads": quad_count,
        "spill_budget": CHILD_SPILL_BUDGET,
        # ru_maxrss is KiB on Linux; peak over the whole child process.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "query_rows": rows,
    }))


def measure_scale_point(scale: int, workdir: Path) -> dict:
    """Run one scale point in a subprocess; returns its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--child", str(scale), str(workdir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def measure_scale_points(scales, workdir: Path) -> dict:
    points = []
    for scale in scales:
        point_dir = Path(workdir) / f"scale-{scale}"
        point_dir.mkdir(parents=True, exist_ok=True)
        points.append(measure_scale_point(scale, point_dir))
    first, last = points[0], points[-1]
    return {
        "cpu_count": os.cpu_count(),
        "scales": list(scales),
        "points": points,
        "rss_ratio": round(last["peak_rss_mb"] / first["peak_rss_mb"], 3),
        "size_ratio": round(last["quads"] / first["quads"], 3),
    }


def measure_intern_throughput(workdir: Path, terms: int = 150_000,
                              fold_every: int = 40_000) -> dict:
    """Cold-dictionary intern rate with periodic incremental folds.

    Interleaves :meth:`TermDictionary.fold_delta` the way a spilling
    ingest does and tracks the slowest single fold — the incremental
    rehash keeps each fold proportional to its delta, so no fold stalls
    for seconds even when one crosses a hash-table growth boundary.
    """
    from repro.rdf.terms import IRI
    from repro.store import TermDictionary
    from repro.store.dictionary import encode_term

    directory = Path(workdir) / "dict"
    directory.mkdir(parents=True, exist_ok=True)
    dictionary = TermDictionary(directory)
    encoded = [
        encode_term(IRI(f"http://example.org/scale/term/{i}"))
        for i in range(terms)
    ]
    fold_times = []
    started = time.perf_counter()
    for i, data in enumerate(encoded, start=1):
        dictionary.add_bytes(data)
        if i % fold_every == 0:
            fold_started = time.perf_counter()
            dictionary.fold_delta()
            fold_times.append(time.perf_counter() - fold_started)
    total_s = time.perf_counter() - started
    # Folded ids must stay resolvable through the rebuilt hash table.
    assert dictionary.lookup(IRI("http://example.org/scale/term/0")) == 1
    assert dictionary.lookup(
        IRI(f"http://example.org/scale/term/{terms - 1}")
    ) == terms
    dictionary.close()
    return {
        "terms": terms,
        "fold_every": fold_every,
        "seconds": round(total_s, 3),
        "terms_per_s": round(terms / total_s, 1),
        "folds": len(fold_times),
        "max_fold_s": round(max(fold_times), 4) if fold_times else 0.0,
        "rehashes": dictionary.rehash_count,
    }


def _check(result: dict) -> list:
    """The guard checks; returns a list of failure messages (empty = pass)."""
    failures = []
    rss_limit = 1.0 + RSS_SUBLINEAR_SLOPE * result["size_ratio"]
    if result["rss_ratio"] > rss_limit:
        failures.append(
            f"peak RSS grew {result['rss_ratio']:.2f}x across a "
            f"{result['size_ratio']:.1f}x corpus (limit {rss_limit:.2f}x)"
        )
    intern = result["intern"]
    if intern["terms_per_s"] < INTERN_TERMS_PER_S_FLOOR:
        failures.append(
            f"intern throughput {intern['terms_per_s']:,.0f}/s below "
            f"{INTERN_TERMS_PER_S_FLOOR:,}/s floor"
        )
    if intern["max_fold_s"] > MAX_FOLD_SECONDS:
        failures.append(
            f"slowest dictionary fold {intern['max_fold_s']:.2f}s exceeds "
            f"{MAX_FOLD_SECONDS}s (rehash stall?)"
        )
    for point in result["points"]:
        missing = [name for name, n in point["query_rows"].items() if n == 0]
        if missing:
            failures.append(
                f"scale {point['scale']}: empty result for {missing}"
            )
    return failures


def _main() -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two scale points; exit non-zero unless peak RSS stays "
             "bounded and intern throughput holds its floor",
    )
    parser.add_argument("--child", nargs=2, metavar=("SCALE", "WORKDIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(_SRC))
    if args.child:
        _child_main(int(args.child[0]), args.child[1])
        return 0
    scales = SMOKE_SCALES if args.smoke else DEFAULT_SCALES
    with tempfile.TemporaryDirectory(prefix="scale-bench-") as tmp:
        result = measure_scale_points(scales, Path(tmp))
        result["intern"] = measure_intern_throughput(Path(tmp))
    print(json.dumps(result, indent=2))
    failures = _check(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"gate OK: peak RSS x{result['rss_ratio']} over a "
              f"x{result['size_ratio']} corpus; intern "
              f"{result['intern']['terms_per_s']:,.0f} terms/s "
              f"(slowest fold {result['intern']['max_fold_s']}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_main())
