"""What the benchmark measures: workloads, metrics, units and bounds.

This is the single source for the names in ``BENCHMARK.json`` (a test
holds the two equal).  The driver's contract has one list of names for
all workloads: every workload reports every end-to-end metric in an
untraced run and every per-layer metric in a traced run.  So a traced
run times both sides — the write path, and the workload served
(``serve_cold`` stands in when the workload is the write path itself) —
and no time it reports is a placeholder.  Only the layer table
(``layer.*``, which reads 0 for a layer the workload does not exercise)
and the tracing overhead are those of the workload's own body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The paper's corpus: 198 runs, 40,589 quads, 11,556 terms.  ``--seed``
#: seeds only the request schedule, never the corpus.
CORPUS_SEED = 2013

#: ``--seconds`` the schedule sizes below are tuned for; another value
#: scales rounds/passes proportionally (never below the floors).
RUN_SECONDS = 20
MIN_ROUNDS = 3
MIN_PASSES = 2
MIN_SAMPLES_PER_PASS = 1000

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 9

#: A seeded query class draws only as many distinct templates/runs as it can
#: send this often in every pass, so that a text's fastest observation is a
#: floor and not a lucky or unlucky draw.  With the cycles below that is 24
#: texts per class on ``serve_cold`` (48 for Q5) — the draw moves the cost of
#: a pass by ~1 % and its median request by ~2 % (simulated over the per-text
#: floors of the full pools) — and every eligible run on ``serve_paths``.
MIN_SENDS_PER_PASS = 6

#: ≥ 4 spill runs + a k-way merge on the 48,561-quad ingest.
PIPELINE_SPILL_BUDGET = 10_000


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end only

    def manifest(self) -> Dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``serve --cache-size``; None keeps the program's default (128).
    #: Ignored by the pipeline workload, which serves nothing.
    cache_size: Optional[int]
    #: Timed rounds (pipeline) or passes (serving) at RUN_SECONDS.
    repeats: int
    #: One cycle of query classes; a pass is ``cycles`` cycles.
    cycle: Tuple[str, ...] = ()
    cycles: int = 0
    #: Seeded parameters (see ``MIN_SENDS_PER_PASS``) or the fixed canonical ones.
    seeded_parameters: bool = True

    @property
    def serving(self) -> bool:
        return bool(self.cycle)

    @property
    def requests_per_pass(self) -> int:
        return len(self.cycle) * self.cycles

    def repeats_for(self, seconds: int) -> int:
        floor = MIN_PASSES if self.serving else MIN_ROUNDS
        return max(floor, round(self.repeats * seconds / RUN_SECONDS))


_SEVEN = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q5", "Q6")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pipeline_write",
            "write path: corpus, rdf, store and pathindex.build do all the work, "
            "sparql and endpoint none; a read gain bought with a slower ingest "
            "or bigger segments shows here",
            cache_size=None,
            repeats=6,
        ),
        Workload(
            "serve_cold",
            "result cache off: every request parses, plans, executes and decodes, "
            "so sparql and store reads dominate; p50 sits in the Q2/Q3 class, "
            "p99 inside Q1",
            cache_size=0,
            repeats=4,
            cycle=_SEVEN,
            cycles=144,
        ),
        Workload(
            "serve_warm",
            "7 fixed texts, 100% cache hits after warm-up: the engine does almost "
            "nothing, endpoint and result serialisation dominate; the foil for "
            "every engine optimisation",
            cache_size=None,
            repeats=6,
            cycle=_SEVEN,
            cycles=286,
            seeded_parameters=False,
        ),
        Workload(
            "serve_paths",
            "cache off, per-run lineage closures plus whole-corpus P1 and P4: "
            "pathindex reads, sparql paths and large-result serialisation "
            "dominate; p50 in the lineage class, p99 inside P1",
            cache_size=0,
            repeats=3,
            cycle=("LIN",) * 48 + ("P1", "P4"),
            cycles=20,
        ),
    )
}

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s_ceiling", "1/s", "higher", 0.20),
    Metric("latency_floor_ms_p50", "ms", "lower", 0.20),
    Metric("latency_floor_ms_p99", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("store_bytes_per_quad", "B/quad", "lower", 0.01),
]

#: Query classes with an in-process ``sparql.execute_ms.<class>`` metric.
EXECUTE_CLASSES = ("q1", "q2", "q3", "q4", "q5", "q6", "lin", "p1", "p2", "p4")

LAYERS = ("corpus", "rdf", "store", "pathindex", "sparql", "endpoint")
#: Rows of the layer table: the layers, result serialisation (between
#: engine and socket) and the explicit remainder.
TABLE_ROWS = LAYERS + ("serialize", "unattributed")

PER_LAYER: List[Metric] = (
    [
        # the workload's own layer table: share of self time per operation
        # (a request, or a run on the write path); the rows sum to 100
        *(Metric(f"layer.{row}_share", "%", "lower") for row in TABLE_ROWS),
        Metric("layer.total_ms_per_op", "ms", "lower"),
        # corpus
        Metric("corpus.build_ms", "ms", "lower"),
        Metric("corpus.plan_ms", "ms", "lower"),
        Metric("corpus.generate_ms", "ms", "lower"),
        Metric("corpus.write_ms", "ms", "lower"),
        Metric("corpus.bytes_per_run", "B/run", "lower"),
        # rdf
        Metric("rdf.parse_ms", "ms", "lower"),
        Metric("rdf.serialize_ms", "ms", "lower"),
        Metric("rdf.triples_parsed", "count", "lower"),
        # store, write side
        Metric("store.ingest_ms", "ms", "lower"),
        Metric("store.apply_ms", "ms", "lower"),
        Metric("store.spill_count", "count", "lower"),
        Metric("store.compact_ms", "ms", "lower"),
        Metric("store.write_amplification", "ratio", "lower"),
        Metric("store.dictionary_bytes_per_term", "B/term", "lower"),
        Metric("store.reingest_noop_ms", "ms", "lower"),
        Metric("store.round_spread", "ratio", "lower"),
        # store, read side
        Metric("store.open_ms", "ms", "lower"),
        Metric("store.scan_ms", "ms", "lower"),
        Metric("store.point_lookup_us", "us", "lower"),
        Metric("store.decode_cache_hit_ratio", "ratio", "higher"),
        Metric("store.segment_probes_per_query", "count", "lower"),
        # pathindex
        Metric("pathindex.build_ms", "ms", "lower"),
        Metric("pathindex.edges", "count", "lower"),
        Metric("pathindex.bytes_per_edge", "B/edge", "lower"),
        Metric("pathindex.ancestors_us", "us", "lower"),
        Metric("pathindex.closure_ms", "ms", "lower"),
        Metric("pathindex.probes_per_query", "count", "lower"),
        # sparql
        Metric("sparql.parse_us", "us", "lower"),
        Metric("sparql.plan_us", "us", "lower"),
        *(Metric(f"sparql.execute_ms.{cls}", "ms", "lower") for cls in EXECUTE_CLASSES),
        Metric("sparql.q1_row_us_inproc", "us/row", "lower"),
        Metric("sparql.q1_row_us_http", "us/row", "lower"),
        Metric("sparql.rows_examined_per_result.q1", "ratio", "lower"),
        Metric("sparql.closure_bfs_ms", "ms", "lower"),
        Metric("sparql.serialize_us_per_row", "us/row", "lower"),
        Metric("sparql.cache_hit_ratio", "ratio", "higher"),
        # endpoint
        Metric("endpoint.start_ms", "ms", "lower"),
        Metric("endpoint.http_floor_ms", "ms", "lower"),
        Metric("endpoint.overhead_ms", "ms", "lower"),
        Metric("endpoint.connections_per_request", "ratio", "lower"),
        Metric("endpoint.response_bytes_per_query", "B", "lower"),
        Metric("endpoint.server_cpu_s_per_kquery", "s", "lower"),
        Metric("endpoint.pass_ops_per_s", "1/s", "higher"),
        # obs / cli / the harness itself
        Metric("obs.metrics_scrape_ms", "ms", "lower"),
        Metric("cli.query_cold_ms", "ms", "lower"),
        Metric("harness.trace_overhead_ratio", "ratio", "lower"),
        Metric("harness.client_cpu_share", "ratio", "lower"),
        Metric("harness.calibration_ms", "ms", "lower"),
    ]
)


def manifest() -> Dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }
