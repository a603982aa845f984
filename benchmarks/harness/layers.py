"""The traced run: per-layer metrics and the outside-in layer table.

End-to-end numbers always come from untraced runs.  A traced run times
the calls into each layer's public functions from the harness's own
files and reads what the program already publishes
(``X-Query-Duration-ms``, ``/stats``, ``/metrics``, ``/healthz``,
``/proc/<pid>``, ``QueryEngine.profile``).

The served program runs in another process, where the harness cannot put
a span.  So every query class of the schedule is *replayed* in process
against the same store through public functions — ``parse_query``,
``QueryEngine.explain`` / ``query`` / ``profile``, ``ResultTable.to_json``
— and the medians are booked under the class's client-side median::

    client median = http floor + parse + plan + execute + serialize + unattributed

``unattributed`` is the explicit remainder: socket transfer of the body,
the per-request server thread, header handling, the client's own reads.
Layer names are the ``src/repro`` packages, plus ``serialize`` for the
result encoding that sits between engine and socket.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Sequence, Tuple

from . import spans as spans_
from .fixture import Fixture
from .schedule import (PATH_QUERIES, Request, canonical_parameters, class_counts,
                       request_for)
from .server import REPO_ROOT, program_env
from .spans import Recorder, Span, layer_table
from .spec import TABLE_ROWS
from .stats import spread

MS = 1e3
US = 1e6

#: In-process samples per query class, at least (P3, the BFS fallback, gets
#: 3); every distinct text of the class is replayed, so the medians are over
#: the same texts as the client-side medians they are booked under.
REPLAY_SAMPLES = 20


def _layer_values(table: Dict[str, float], total: float, ops: float) -> Dict[str, float]:
    values = {f"layer.{row}_share": 100.0 * table.get(row, 0.0) / total for row in TABLE_ROWS}
    values["layer.total_ms_per_op"] = total / ops * MS
    return values


# -- pipeline ------------------------------------------------------------------


def pipeline_layers(child: Dict) -> Tuple[Dict[str, float], Dict[str, float], str, Dict]:
    """Write-side layer metrics, the workload's own values (layer table and
    tracing overhead), the printed table and the trace payload of a traced
    pipeline child."""
    recorded = [Span(**span) for span in child["spans"]]
    by_name = {span.name: span for span in recorded}
    self_time = spans_.self_times(recorded)
    round_spans = [span for span in recorded if span.op == "round"]
    root = round_spans[0]
    table = layer_table(round_spans)
    rounds = child["rounds"]
    last = rounds[-1]
    traced = child["traced"]
    runs = last["invariants"]["runs"]
    index = last["path_index"]

    def duration(name: str) -> float:
        return by_name[name].duration * MS

    apply = by_name["ingest_corpus(compact=False, path_index=False)"]
    own = _layer_values(table, root.duration, runs)
    own["harness.trace_overhead_ratio"] = (
        root.duration / statistics.median(r["build_s"] + r["ingest_s"] for r in rounds))
    values = {
        "corpus.build_ms": min(r["build_s"] for r in rounds) * MS,
        "corpus.plan_ms": duration("replay:CorpusBuilder.plan"),
        "corpus.generate_ms": duration("replay:CorpusBuilder.iter_traces"),
        "corpus.write_ms": self_time[by_name["build_and_write"].id] * MS,
        "corpus.bytes_per_run": last["corpus_bytes"] / runs,
        "rdf.parse_ms": duration("replay:parse_turtle/parse_trig"),
        "rdf.serialize_ms": duration("replay:serialize_turtle/serialize_trig"),
        "rdf.triples_parsed": traced["rdf_triples"],
        "store.ingest_ms": min(r["ingest_s"] for r in rounds) * MS,
        "store.apply_ms": self_time[apply.id] * MS,
        "store.spill_count": traced["spill_count"],
        "store.compact_ms": duration("QuadStore.compact"),
        "store.write_amplification": traced["written_bytes"] / last["store_bytes"],
        "store.dictionary_bytes_per_term":
            last["dictionary_bytes"] / last["invariants"]["terms"],
        "store.reingest_noop_ms": duration("ingest_corpus (unchanged corpus)"),
        "store.round_spread": spread([r["ingest_s"] for r in rounds]),
        "pathindex.build_ms": duration("build_path_index"),
        "pathindex.edges": index["edges"],
        "pathindex.bytes_per_edge": sum(index["bytes"].values()) / index["edges"],
    }
    text = (
        f"layer table, one traced round ({runs} runs), self time\n"
        + spans_.format_table(table, root.duration)
    )
    payload = {"workload": "pipeline_write", "table": text, "spans": child["spans"]}
    return values, own, text, payload


# -- serving -------------------------------------------------------------------


def _timed(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - started, result


def live_probes(driver) -> Dict[str, List[float]]:
    """Round trips that need the server up: the HTTP floor, a metrics scrape
    and Q1 (the ROADMAP's cost per result row) on this workload's server."""
    client = driver.client
    q1 = driver.encoded(request_for("Q1"))
    return {
        "q1": [_timed(client.send, q1)[0] for _ in range(REPLAY_SAMPLES)],
        "http_floor": [_timed(client.get, "/healthz")[0] for _ in range(50)],
        "metrics_scrape": [_timed(client.get, "/metrics")[0] for _ in range(5)],
    }


def _replay_class(engine, parse_query, requests: Sequence[Request], samples: int,
                  cached: bool) -> Dict[str, float]:
    """Medians of the public calls one query class makes, plus its profile.

    Parsing and planning are timed on a cached engine too — what a miss
    would pay — but a hit does neither, so the layer table books them
    only for an engine without a result cache.
    """
    parse, plan, query, serialize, rows = [], [], [], [], []
    repeats = max(1, -(-samples // len(requests)))
    for request in requests:
        if cached:
            engine.query(request.text)  # fill the result cache, as the warm-up pass does
        for _ in range(repeats):
            parse_s, _ = _timed(parse_query, request.text, engine.namespaces)
            explain_s, _ = _timed(engine.explain, request.text)
            query_s, result = _timed(engine.query, request.text)
            serialize_s, _ = _timed(result.to_json)
            parse.append(parse_s)
            plan.append(max(0.0, explain_s - parse_s))
            query.append(query_s)
            serialize.append(serialize_s)
            rows.append(len(result))
    measured = {
        "parse": statistics.median(parse),
        "plan": statistics.median(plan),
        "query": statistics.median(query),
        "serialize": statistics.median(serialize),
        "rows": statistics.median(rows),
        "store_share": 0.0,
        "pathindex_share": 0.0,
        "rows_examined": 0.0,
    }
    # a hit executes nothing beyond the cache lookup
    measured["execute"] = measured["query"] if cached else max(
        0.0, measured["query"] - measured["parse"] - measured["plan"])
    if not cached:
        # what the program publishes about its own operators: scan rows
        # say how much of the execution was store / path-index access
        report = engine.profile(requests[0].text).report
        scans = [op for op in report["operators"] if op["op"] == "scan"]
        total = report["duration_ms"] or 1.0
        for op in scans:
            layer = "pathindex_share" if op.get("join") == "pathindex" else "store_share"
            measured[layer] += (op.get("wall_ms") or 0.0) / total
        measured["rows_examined"] = sum(op.get("rows_out", 0) for op in scans)
    return measured


def replay(fixture: Fixture, schedule: Sequence[Request], cached: bool
           ) -> Tuple[Dict[str, Dict[str, float]], Dict]:
    """Replay every query class in process; returns per-class medians and
    store-level probes.

    The classes of *schedule* are replayed over its own distinct texts, on
    an engine with the workload's cache setting; every other class over
    its canonical text with the result cache off, so that a traced run
    times every class whatever the workload.
    """
    from repro.sparql import QueryEngine, parse_query
    from repro.store import QuadStore, StoreDataset

    by_class: Dict[str, List[Request]] = {}
    for request in schedule:
        known = by_class.setdefault(request.cls, [])
        if request not in known:
            known.append(request)
    own = set(by_class)
    canonical = canonical_parameters(fixture.traces())
    for cls in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "LIN", *PATH_QUERIES):
        by_class.setdefault(cls, [request_for(cls, canonical.get(cls, [None])[0])])

    # the harness's own long-lived objects (samples, golden pins) would make
    # every collection in the replayed code slower than in the served program
    gc.collect()
    gc.freeze()
    open_s, store = _timed(QuadStore, fixture.store)
    try:
        dataset = StoreDataset(store)
        uncached = QueryEngine(dataset, cache_size=0)
        engine = QueryEngine(dataset) if cached else uncached
        classes = {}
        index = store.path_index()
        probes = {}
        for cls, requests in by_class.items():
            samples = 3 if cls == "P3" else REPLAY_SAMPLES
            if cls in own:
                classes[cls] = _replay_class(engine, parse_query, requests, samples, cached)
            else:
                classes[cls] = _replay_class(uncached, parse_query, requests, samples, False)
            if cls in own and not cached:
                before = index.probes(), store.runtime_counters()[0]
                for request in requests:
                    engine.query(request.text)
                probes[cls] = ((index.probes() - before[0]) / len(requests),
                               (store.runtime_counters()[0] - before[1]) / len(requests))
        store_probes = {"open_s": open_s, "probes": probes}
        store_probes.update(_store_probes(dataset))
    finally:
        store.close()
        gc.unfreeze()
    return classes, store_probes


def _store_probes(dataset) -> Dict[str, float]:
    """A full union-view scan and seeded ``(s, p, ?)`` point lookups."""
    graph = dataset.union_graph()
    scan_s, triples = _timed(lambda: list(graph.triples()))
    rng = random.Random(len(triples))
    sample = rng.sample(triples, 500)
    started = time.perf_counter()
    for triple in sample:
        for _ in graph.triples(triple.subject, triple.predicate, None):
            pass
    lookup_s = (time.perf_counter() - started) / len(sample)
    return {"scan_s": scan_s, "point_lookup_s": lookup_s}


def _ancestors_us(fixture: Fixture, seed: int) -> float:
    """Median ``DependencyAnalyzer.transitive_dependencies`` over seeded entities."""
    from repro.apps.dependencies import DependencyAnalyzer
    from repro.store import QuadStore, StoreDataset

    with QuadStore(fixture.store) as store:
        analyzer = DependencyAnalyzer(StoreDataset(store).union_graph())
        entities = sorted(analyzer.generated_entities(), key=str)
        sample = random.Random(seed).sample(entities, min(200, len(entities)))
        timings = [_timed(analyzer.transitive_dependencies, entity)[0] for entity in sample]
    return statistics.median(timings) * US


def _cli_query_cold_ms(fixture: Fixture, text: str) -> float:
    """``repro-corpus query --store`` one-shot: interpreter + open + sync + query."""
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", str(fixture.corpus), text,
             "--store", str(fixture.store), "--format", "json"],
            env=program_env(), cwd=str(REPO_ROOT), check=True, stdout=subprocess.DEVNULL,
        )
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) * MS


def _stats_delta(run, *path: str) -> float:
    def dig(stats):
        for key in path:
            stats = stats[key]
        return stats

    return dig(run.stats_after) - dig(run.stats_before)


def serving_layers(run, fixture: Fixture, seed: int
                   ) -> Tuple[Dict[str, float], Dict[str, float], str, Dict]:
    """Read-side layer metrics, the workload's own values (layer table and
    tracing overhead), the printed tables and the trace payload of a traced
    serving run."""
    workload = run.workload
    schedule = run.schedule
    untraced, traced = run.passes[0], run.passes[-1]
    cached = workload.cache_size != 0
    counts = class_counts(schedule)
    requests = len(schedule)

    classes, store_probes = replay(fixture, schedule, cached)

    # client-side medians per class, from the traced pass
    client: Dict[str, List[float]] = {}
    server: Dict[str, List[float]] = {}
    failed = set(traced.failed)
    ok_positions = [i for i in range(requests) if i not in failed]
    for sample, position in enumerate(ok_positions):
        cls = schedule[position].cls
        client.setdefault(cls, []).append(traced.latencies[position])
        server.setdefault(cls, []).append(traced.server_ms[sample] / MS)
    floor = statistics.median(run.probes["http_floor"])

    recorder = Recorder()
    lines = [
        f"{'class':<6}{'n':>6}{'client':>10}{'server':>10} ={'floor':>9}{'parse':>9}"
        f"{'plan':>9}{'execute':>10}{'serialize':>10}{'unattrib':>10}   (ms, medians)"
    ]
    for cls in sorted(counts):
        measured = classes[cls]
        client_median = statistics.median(client[cls])
        execute = measured["execute"]
        # a cache hit neither parses nor plans
        parse, plan = (0.0, 0.0) if cached else (measured["parse"], measured["plan"])
        root = recorder.add_operation(f"class:{cls}", cls, client_median)
        recorder.add("http floor (/healthz round trip)", "endpoint", floor, root)
        query = recorder.add("QueryEngine.query", "sparql", measured["query"], root)
        recorder.add("parse_query", "sparql", parse, query)
        recorder.add("QueryEngine.explain - parse", "sparql", plan, query)
        recorder.add("store scans (profile)", "store",
                     execute * measured["store_share"], query)
        recorder.add("path-index scans (profile)", "pathindex",
                     execute * measured["pathindex_share"], query)
        recorder.add("ResultTable.to_json", "serialize", measured["serialize"], root)
        rest = client_median - floor - measured["query"] - measured["serialize"]
        lines.append(
            f"{cls:<6}{counts[cls]:>6}{client_median * MS:>10.3f}"
            f"{statistics.median(server[cls]) * MS:>10.3f} ="
            f"{floor * MS:>9.3f}{parse * MS:>9.3f}{plan * MS:>9.3f}"
            f"{execute * MS:>10.3f}{measured['serialize'] * MS:>10.3f}{rest * MS:>10.3f}"
        )

    # one request of the mix: class tables weighted by their share of the schedule
    table: Dict[str, float] = {}
    total = 0.0
    for cls, count in counts.items():
        class_spans = [span for span in recorder.spans if span.op == f"class:{cls}"]
        for layer, seconds in layer_table(class_spans).items():
            table[layer] = table.get(layer, 0.0) + seconds * count / requests
        total += class_spans[0].duration * count / requests

    def weighted(key: str) -> float:
        return sum(classes[cls][key] * count for cls, count in counts.items()) / requests

    own = _layer_values(table, total, 1)
    own["harness.trace_overhead_ratio"] = traced.elapsed / untraced.elapsed
    values = {}
    for cls, measured in classes.items():
        name = "sparql.closure_bfs_ms" if cls == "P3" else f"sparql.execute_ms.{cls.lower()}"
        values[name] = measured["execute"] * MS
    hits = _stats_delta(run, "result_cache", "hits")
    misses = _stats_delta(run, "result_cache", "misses")
    # /stats deltas span the timed passes and the post-pass
    served = requests * len(run.passes) + run.verified // 2
    decode_hits = _stats_delta(run, "store", "decoded_term_cache", "hits")
    decode_misses = _stats_delta(run, "store", "decoded_term_cache", "misses")
    segment_probes = sum(
        after - run.stats_before["store"]["segment_probes"][name]
        for name, after in run.stats_after["store"]["segment_probes"].items()
    )
    q1, p1 = classes["Q1"], classes["P1"]
    values.update({
        "sparql.parse_us": weighted("parse") * US,
        "sparql.plan_us": weighted("plan") * US,
        "sparql.serialize_us_per_row": weighted("serialize") / weighted("rows") * US,
        "sparql.q1_row_us_inproc": q1["query"] / q1["rows"] * US,
        "sparql.q1_row_us_http": statistics.median(run.probes["q1"]) / q1["rows"] * US,
        "sparql.rows_examined_per_result.q1": q1["rows_examined"] / q1["rows"],
        # an engine without a result cache counts neither
        "sparql.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.open_ms": store_probes["open_s"] * MS,
        "store.scan_ms": store_probes["scan_s"] * MS,
        "store.point_lookup_us": store_probes["point_lookup_s"] * US,
        "store.decode_cache_hit_ratio":
            decode_hits / (decode_hits + decode_misses) if decode_hits + decode_misses else 0.0,
        "store.segment_probes_per_query": segment_probes / served,
        "pathindex.ancestors_us": _ancestors_us(fixture, seed),
        "pathindex.closure_ms": p1["execute"] * p1["pathindex_share"] * MS,
        "pathindex.probes_per_query": sum(
            store_probes["probes"][cls][0] * count for cls, count in counts.items()
        ) / requests if not cached else 0.0,
        "endpoint.start_ms": statistics.median(run.starts) * MS,
        "endpoint.http_floor_ms": floor * MS,
        "endpoint.overhead_ms": statistics.median(
            traced.latencies[position] - traced.server_ms[sample] / MS
            for sample, position in enumerate(ok_positions)) * MS,
        "endpoint.connections_per_request": traced.connections / requests,
        "endpoint.response_bytes_per_query": traced.response_bytes / len(ok_positions),
        "endpoint.server_cpu_s_per_kquery": traced.server_cpu_s / requests * 1000,
        # what the plain pass really achieved, costs that only some requests pay included
        "endpoint.pass_ops_per_s": requests / untraced.elapsed,
        "obs.metrics_scrape_ms": statistics.median(run.probes["metrics_scrape"]) * MS,
        "cli.query_cold_ms": _cli_query_cold_ms(
            fixture, next(r.text for r in schedule if r.cls in ("Q5", "LIN"))),
        "harness.client_cpu_share": untraced.client_cpu_s / untraced.elapsed,
    })

    text = "\n".join(lines) + (
        f"\nlayer table, one request of the mix ({requests} requests), self time\n"
        + spans_.format_table(table, total)
    )
    payload = {
        "workload": workload.name, "table": text,
        "spans": [asdict(span) for span in recorder.spans],
        "requests": [
            {"position": position, "class": schedule[position].cls,
             "key": schedule[position].key,
             "latency_s": traced.latencies[position],
             "first_byte_s": traced.first_byte[sample],
             "server_ms": traced.server_ms[sample]}
            for sample, position in enumerate(ok_positions)
        ],
    }
    return values, own, text, payload
