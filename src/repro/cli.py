"""Command-line interface: ``repro-corpus``.

Sub-commands:

* ``build <dir>`` — build the corpus (seeded) and write the ProvBench
  directory layout; ``--scale N`` multiplies workflows/runs for a
  deterministic N×-sized corpus, streamed run-at-a-time so memory stays
  flat at any scale;
* ``query <dir> <sparql or @file>`` — run a SPARQL query over a stored
  corpus;
* ``lineage <dir> <entity>`` — trace an entity's derivation lineage
  (ancestors by default, ``--descendants`` for dependents, ``--to IRI``
  for a chain between two entities) by walking the store's own orderings;
* ``serve [<dir>] [--port N]`` — start the SPARQL endpoint over a stored
  corpus;
* ``store ingest <dir>`` — incrementally ingest a stored corpus into a
  persistent quad store (only new/changed traces are parsed);
* ``store info <store-dir>`` — print a quad store's manifest summary;
* ``obs summary <trace>`` — aggregate a span trace file per phase;
* ``obs slowlog <url|dir>`` — print retained query records;
* ``report`` — build in memory and print every paper artifact (Tables
  1–3, Figure 1, Section 2, applications, profile, maintenance) as one
  Markdown report; exits 1 when a paper cell deviates or the
  maintenance pass finds an issue, naming each on stderr;
* ``ro <template-id>`` — print a template's Research Object manifest.

``query``, ``lineage`` and ``serve`` read a corpus directory only
through its persistent quad store (memory-mapped dictionary-encoded
segments): ``<dir>/.store``, or wherever ``--store PATH`` says it lives,
synced with the trace files first (a no-op when nothing changed).
``serve --store PATH`` without a directory serves the store as it is.

``build``, ``store ingest``, and ``serve`` accept ``--obs-dir DIR``:
the command appends structured events to ``DIR/events.jsonl`` — one
``build.done`` / ``ingest.done`` line per run with the counters that
moved (``--jobs N`` pool workers included), one ``endpoint.request``
line per request.

``build``, ``store ingest``, ``query``, and ``serve`` accept
``--trace FILE`` to write a Chrome ``trace_event`` file (open it in
``chrome://tracing`` or https://ui.perfetto.dev) covering the command's
phase spans — including spans forwarded from ``--jobs N`` pool workers;
a traced ``serve`` stamps each request's spans with its record's trace
id (``X-Trace-Id``).  A live endpoint's ``/metrics`` and
``/debug/profile?seconds=N`` are plain HTTP GETs (``curl``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-corpus",
        description="ProvBench Wf4Ever-PROV corpus reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=2013, help="corpus build seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the corpus and write it to disk")
    p_build.add_argument("directory", type=Path)
    p_build.add_argument(
        "--store", type=Path, nargs="?", const=True, default=None, metavar="DIR",
        help="also ingest the written traces into a persistent quad store "
             "(default location: <directory>/.store)",
    )
    p_build.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the build (and store ingest, with "
             "--store); 0 = one per CPU.  Output is byte-identical to "
             "--jobs 1 (default: 1)",
    )
    p_build.add_argument(
        "--scale", type=int, default=1, metavar="N",
        help="corpus scale multiplier: N× workflows and runs per domain, "
             "deterministically seeded; --scale 1 reproduces the paper's "
             "corpus byte for byte (default: 1)",
    )
    _add_spill_budget_flag(p_build)
    _add_trace_flag(p_build)
    _add_obs_dir_flag(p_build)

    p_query = sub.add_parser("query", help="run SPARQL over a stored corpus")
    p_query.add_argument("directory", type=Path)
    p_query.add_argument("sparql", help="query text, or @path/to/file.rq")
    p_query.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _add_store_location_flag(p_query)
    p_query.add_argument(
        "--explain", action="store_true",
        help="print the query plan (EXPLAIN) instead of evaluating; the "
             "digest is deterministic for a given query + corpus",
    )
    p_query.add_argument(
        "--profile", action="store_true",
        help="evaluate with per-operator statistics (PROFILE) and print "
             "the merged plan + stats report",
    )
    _add_trace_flag(p_query)

    p_lineage = sub.add_parser(
        "lineage", help="trace an entity's derivation lineage in a stored corpus"
    )
    p_lineage.add_argument("directory", type=Path, help="corpus directory")
    p_lineage.add_argument("entity", help="entity IRI to trace")
    p_lineage.add_argument(
        "--to", metavar="IRI", default=None,
        help="print a derivation chain from the entity to this source IRI",
    )
    p_lineage.add_argument(
        "--descendants", action="store_true",
        help="list transitive dependents (what was derived from the entity) "
             "instead of its transitive dependencies",
    )
    _add_store_location_flag(p_lineage)
    p_lineage.add_argument("--json", action="store_true", help="print JSON")

    p_serve = sub.add_parser("serve", help="serve a stored corpus over SPARQL")
    p_serve.add_argument(
        "directory", type=Path, nargs="?", default=None,
        help="corpus directory (optional when --store points at a built store)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8890)
    p_serve.add_argument(
        "--cache-size", type=int, default=None, metavar="N",
        help="query-result cache capacity (0 disables; default 128)",
    )
    p_serve.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="store directory (default: <corpus>/.store); without a corpus "
             "directory the store is served as it is, unsynced",
    )
    p_serve.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="retain requests slower than MS (or errored) for /slowlog and "
             "/trace/<id>, with per-operator statistics (0 retains every "
             "request; default: /slowlog off, retention at 100 ms)",
    )
    _add_trace_flag(p_serve, "endpoint request/query spans, written on shutdown")
    _add_obs_dir_flag(p_serve)

    p_store = sub.add_parser("store", help="persistent quad store operations")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_ingest = store_sub.add_parser(
        "ingest", help="incrementally ingest a stored corpus into a quad store"
    )
    p_ingest.add_argument("directory", type=Path, help="corpus directory")
    _add_store_location_flag(p_ingest)
    p_ingest.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for trace parsing; 0 = one per CPU.  "
             "Segments are byte-identical to --jobs 1 (default: 1)",
    )
    _add_spill_budget_flag(p_ingest)
    _add_trace_flag(p_ingest)
    _add_obs_dir_flag(p_ingest)
    p_info = store_sub.add_parser("info", help="print a quad store's summary")
    p_info.add_argument("store_dir", type=Path)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_summary = obs_sub.add_parser(
        "summary", help="aggregate a --trace file per (category, span name)"
    )
    p_obs_summary.add_argument("trace", type=Path, help="trace file written by --trace")
    p_obs_summary.add_argument("--json", action="store_true", help="print JSON")
    p_obs_slowlog = obs_sub.add_parser(
        "slowlog", help="print retained query records (live endpoint URL, "
                        "obs dir or events.jsonl)"
    )
    p_obs_slowlog.add_argument(
        "source", help="endpoint base URL, .../slowlog URL, obs dir or events.jsonl"
    )
    p_obs_slowlog.add_argument("--json", action="store_true", help="print raw JSON")

    sub.add_parser(
        "report", help="print the full reproduction report (Markdown); exit 1 "
                       "when it deviates from the paper",
    )

    p_ro = sub.add_parser("ro", help="print the Research Object manifest of a template")
    p_ro.add_argument("template_id")
    return parser


def _add_trace_flag(parser, what: str = "phase spans for this command") -> None:
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help=f"write a Chrome trace_event file of {what} "
             "(open in chrome://tracing or Perfetto)",
    )


def _add_store_location_flag(parser) -> None:
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="store directory (default: <corpus>/.store)",
    )


def _add_obs_dir_flag(parser) -> None:
    parser.add_argument(
        "--obs-dir", type=Path, default=None, metavar="DIR",
        help="observability directory: the command appends structured "
             "events (build.done / ingest.done with the run's counters, "
             "one endpoint.request per request) to DIR/events.jsonl",
    )


def _apply_obs_dir(args):
    """Open the process-wide event log for ``--obs-dir``."""
    obs_dir = getattr(args, "obs_dir", None)
    if obs_dir is not None:
        from .obs import events

        events.configure(str(obs_dir))
    return obs_dir


def _add_spill_budget_flag(parser) -> None:
    parser.add_argument(
        "--spill-budget", type=int, default=None, metavar="QUADS",
        help="pending-quad budget before the store ingest spills sorted "
             "runs to disk (0 disables spilling; default: 500000).  "
             "Segment bytes are identical at any budget",
    )


def _progress_hook(label: str, unit: str, work_unit: str, work_of=None):
    """An ``on_*(done, total, payload)`` callback driving a one-line
    stderr :class:`~repro.obs.Progress` (silent unless stderr is a TTY).

    *work_of* extracts the cumulative work count from the payload;
    without it the payload itself is the count.
    """
    from .obs.progress import Progress

    state = {}

    def on_event(done, total, payload):
        progress = state.get("progress")
        if progress is None:
            progress = state["progress"] = Progress(
                label, total=total, unit=unit, work_unit=work_unit
            )
        progress.total = total
        work = work_of(payload) if work_of is not None else payload
        if done >= total:
            progress.finish(done, work=work)
        else:
            progress.update(done, work=work)

    return on_event


def _synced_store(args, jobs: int = 1, tracer=None, **store_kwargs):
    """``(store, report)``: the corpus directory's quad store, synced with
    its trace files; ``(None, None)``, once the error is on stderr, when
    there is no corpus directory."""
    from .store import open_corpus_store

    try:
        return open_corpus_store(
            args.directory, args.store, jobs=jobs, tracer=tracer,
            on_file=_progress_hook("ingest", "files", "quads"), **store_kwargs,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None


def _make_tracer(args):
    """A Tracer when ``--trace`` was given, else None.

    Also starts one root W3C trace context for the command, so every
    span the traced build/ingest/serve records — in this process and in
    pool workers — stamps the same ``trace_id`` and the trace file
    cross-references slow-query-log records and events by id.
    """
    if getattr(args, "trace", None) is None:
        return None
    from .obs import tracectx
    from .obs.trace import Tracer

    tracectx.activate(tracectx.start_trace())
    return Tracer()


def _write_trace(tracer, args) -> None:
    if tracer is None:
        return
    count = tracer.write(args.trace)
    print(f"  trace: {args.trace} ({count} spans)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "build": _cmd_build,
        "query": _cmd_query,
        "lineage": _cmd_lineage,
        "serve": _cmd_serve,
        "store": _cmd_store,
        "obs": _cmd_obs,
        "report": _cmd_report,
        "ro": _cmd_ro,
    }[args.command]
    return handler(args)


def _cmd_build(args) -> int:
    from .corpus import CorpusBuilder, build_and_write

    tracer = _make_tracer(args)
    obs_dir = _apply_obs_dir(args)
    builder = CorpusBuilder(seed=args.seed, scale=args.scale)
    store_dir = args.directory / ".store" if args.store is True else args.store
    store_kwargs = None
    if args.spill_budget is not None:
        store_kwargs = {"spill_quad_budget": args.spill_budget}
    # Streaming build: traces go straight to disk run-at-a-time, so a
    # --scale 50 corpus never holds more than one trace in memory.
    manifest = build_and_write(
        builder, args.directory, store=store_dir, jobs=args.jobs, tracer=tracer,
        on_trace=_progress_hook("build", "runs", "triples",
                                work_of=lambda writer: writer.triples),
        store_kwargs=store_kwargs,
        on_ingest_file=_progress_hook("ingest", "files", "quads"),
    )
    stats = json.loads(manifest.read_text())["statistics"]
    print(f"built corpus under {args.directory}")
    if store_dir is not None:
        print(f"  quad store: {store_dir}")
    print(f"  workflows: {stats['workflows']}  runs: {stats['runs']}  "
          f"failed: {stats['failed_runs']}")
    print(f"  size: {stats['size_bytes'] / (1024 * 1024):.1f} MB "
          f"({stats['triples']} triples)")
    print(f"  manifest: {manifest}")
    if obs_dir is not None:
        print(f"  obs dir: {obs_dir}")
    _write_trace(tracer, args)
    return 0


def _cmd_query(args) -> int:
    from .sparql import QueryEngine
    from .store import StoreDataset

    sparql = args.sparql
    if sparql.startswith("@"):
        sparql = Path(sparql[1:]).read_text()
    tracer = _make_tracer(args)
    store, _ = _synced_store(args)
    if store is None:
        return 1
    with store:
        engine = QueryEngine(StoreDataset(store), tracer=tracer)
        if args.explain:
            plan = engine.explain(sparql)
            print(plan.to_json() if args.format == "json" else plan.to_text())
            _write_trace(tracer, args)
            return 0
        if args.profile:
            profile = engine.profile(sparql)
            print(profile.to_json() if args.format == "json" else profile.to_text())
            _write_trace(tracer, args)
            return 0
        result = engine.query(sparql)
        if isinstance(result, bool):
            print("true" if result else "false")
            return 0
        if args.format == "csv":
            print(result.to_csv(), end="")
        elif args.format == "json":
            print(result.to_json())
        else:
            print(result.pretty())
            print(f"({len(result)} rows)")
    _write_trace(tracer, args)
    return 0


def _cmd_lineage(args) -> int:
    from .apps.dependencies import DependencyAnalyzer
    from .rdf.terms import IRI
    from .store import StoreDataset

    entity = IRI(args.entity)
    store, _ = _synced_store(args)
    if store is None:
        return 1
    with store:
        analyzer = DependencyAnalyzer(StoreDataset(store).union_graph())
        if args.to is not None:
            mode = "path"
            chain = analyzer.derivation_path(entity, IRI(args.to))
            results = [term.value for term in chain] if chain is not None else None
        elif args.descendants:
            mode = "descendants"
            results = sorted(
                term.value for term in analyzer.dependents_of(entity)
            )
        else:
            mode = "ancestors"
            results = sorted(
                term.value for term in analyzer.transitive_dependencies(entity)
            )
    if args.json:
        print(json.dumps({
            "entity": entity.value,
            "mode": mode,
            "results": results,
        }, indent=2))
        # An empty ancestor/dependent list is a valid answer; only a
        # requested-but-absent chain is a failure.
        return 0 if args.to is None or results is not None else 1
    if args.to is not None:
        if results is None:
            print(f"no derivation chain from {entity.value} to {args.to}")
            return 1
        print("  ->  ".join(results))
        return 0
    for value in results:
        print(value)
    label = "dependent(s)" if mode == "descendants" else "ancestor(s)"
    print(f"({len(results)} {label} of {entity.value})")
    return 0


def _cmd_serve(args) -> int:
    from .endpoint import SparqlEndpoint
    from .sparql import DEFAULT_RESULT_CACHE_SIZE
    from .store import QuadStore, StoreDataset

    if args.directory is not None:
        store, report = _synced_store(args)
        if store is None:
            return 1
        if not report.no_op:
            print(f"store synced: {json.dumps(report.summary())}")
    elif args.store is not None:
        # an already-built store: opened as it is, no corpus scan, no lock
        store = QuadStore(args.store)
    else:
        print("error: serve needs a corpus directory, --store, or both", file=sys.stderr)
        return 2
    cache_size = args.cache_size if args.cache_size is not None else DEFAULT_RESULT_CACHE_SIZE
    tracer = _make_tracer(args)
    endpoint = SparqlEndpoint(
        StoreDataset(store), host=args.host, port=args.port, cache_size=cache_size,
        tracer=tracer, slow_query_ms=args.slow_query_ms,
        obs_dir=str(args.obs_dir) if args.obs_dir is not None else None,
    )
    endpoint.start()
    print(f"serving SPARQL endpoint over store {store.path} at {endpoint.query_url} "
          "(Ctrl-C to stop)")
    print(f"  cache: {cache_size} entries  stats: {endpoint.stats_url}")
    print(f"  metrics: {endpoint.metrics_url}  healthz: {endpoint.healthz_url}")
    if endpoint.obs_dir is not None:
        print(f"  obs dir: {endpoint.obs_dir} (one endpoint.request line per "
              f"request in events.jsonl)")
    slowlog = f"{endpoint.slowlog_url}, " if endpoint.slow_query_ms is not None else ""
    print(f"  retained: {slowlog}{endpoint.trace_url}/<trace-id> "
          f"(requests ≥ {endpoint.requests.slow_ms:g} ms or errored)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        endpoint.stop()
    finally:
        store.close()
        _write_trace(tracer, args)
    return 0


def _cmd_store(args) -> int:
    from .store import QuadStore

    if args.store_command == "ingest":
        tracer = _make_tracer(args)
        obs_dir = _apply_obs_dir(args)
        kwargs = {}
        if args.spill_budget is not None:
            kwargs["spill_quad_budget"] = args.spill_budget
        store, report = _synced_store(args, jobs=args.jobs, tracer=tracer, **kwargs)
        if store is None:
            return 1
        store.close()
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
        if report.no_op:
            print("store already up to date (no files re-parsed)")
        if obs_dir is not None:
            print(f"obs dir: {obs_dir}")
        _write_trace(tracer, args)
        return 0
    # info — refuse to silently create a store at a mistyped path
    if not (args.store_dir / "store.json").exists():
        print(f"error: no quad store at {args.store_dir}", file=sys.stderr)
        return 1
    with QuadStore(args.store_dir) as store:
        print(json.dumps(store.store_info(), indent=2, sort_keys=True))
    return 0


def _cmd_obs(args) -> int:
    if args.obs_command == "summary":
        from .obs.trace import read_trace, summarize

        if not args.trace.exists():
            print(f"error: no trace file at {args.trace}", file=sys.stderr)
            return 1
        rows = summarize(read_trace(args.trace))
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        if not rows:
            print("(empty trace)")
            return 0
        header = f"{'cat':<10} {'span':<16} {'count':>7} {'total_ms':>10} {'mean_ms':>9} {'max_ms':>9}"
        print(header)
        print("-" * len(header))
        for row in rows:
            print(f"{row['cat']:<10} {row['name']:<16} {row['count']:>7} "
                  f"{row['total_ms']:>10.3f} {row['mean_ms']:>9.3f} {row['max_ms']:>9.3f}")
        return 0
    return _obs_slowlog(args)


def _obs_slowlog(args) -> int:
    source = args.source
    if source.startswith(("http://", "https://")):
        import urllib.request

        url = source
        if not url.rstrip("/").endswith("/slowlog"):
            url = url.rstrip("/") + "/slowlog"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read().decode("utf-8"))
        entries = payload.get("entries", [])
        if not payload.get("enabled", False):
            print("slow-query log disabled on this endpoint "
                  "(start serve with --slow-query-ms)", file=sys.stderr)
    else:
        from .obs.events import read_events

        if not Path(source).exists():
            print(f"error: no obs dir or event log at {source}", file=sys.stderr)
            return 1
        # retained requests that ran a query: the lines /slowlog would list
        entries = [e for e in read_events(source, kind="endpoint.request")
                   if "query" in e]
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print("(no slow queries recorded)")
        return 0
    header = (f"{'duration_ms':>12} {'cache':<5} {'plan_digest':<17} "
              f"{'span':<16}  query")
    print(header)
    print("-" * len(header))
    for entry in entries:
        digest = entry.get("plan_digest") or "-"
        span_id = entry.get("span_id") or "-"
        query = " ".join((entry.get("query") or "").split())
        print(f"{entry.get('duration_ms', 0):>12.3f} {entry.get('cache', '?'):<5} "
              f"{digest:<17} {span_id:<16}  {query[:80]}")
    return 0


def _cmd_report(args) -> int:
    from .corpus import CorpusBuilder
    from .report import PaperArtifacts

    artifacts = PaperArtifacts(CorpusBuilder(seed=args.seed).build())
    # UTF-8 whatever the locale says: the report carries "—" and "✓".
    sys.stdout.buffer.write((artifacts.report() + "\n").encode("utf-8"))
    sys.stdout.buffer.flush()
    deviations = artifacts.deviations()
    if deviations:
        print("the reproduction deviates from the paper:", file=sys.stderr)
        for deviation in deviations:
            print(f"  {deviation}", file=sys.stderr)
        return 1
    return 0


def _cmd_ro(args) -> int:
    from .corpus import CorpusBuilder, package_template
    from .rdf import serialize_turtle

    corpus = CorpusBuilder(seed=args.seed).build()
    try:
        manifest = package_template(corpus, args.template_id)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(serialize_turtle(manifest.graph))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
