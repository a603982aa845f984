"""Query-parity gate: every source must agree on Q1–Q6 and P1–P5.

Builds the deterministic corpus, ingests it into two stores, then
evaluates the six exemplar queries and five property-path queries over
the three sources the engine can be handed:

    memory     the in-memory dataset (per-binding BGPs, term-walk paths)
    store-j1   ``--jobs 1`` ingest (id-space BGPs, paths walking the
               store's own orderings)
    store-j2   ``--jobs 2`` ingest (same bytes, or this gate fails)

The engine has no switches; which pipeline runs is decided by what each
source can do.  For each query the canonical row multiset must be
identical across all three sources, the EXPLAIN plan digest must be
identical between the two store builds (plan determinism across
parallel ingest), and the two path-index edge files must be
byte-identical between them.  (Row *order* of a path walk is held
against a per-start BFS by ``TestUnboundClosureOrder`` and
``TestBoundClosureOrder`` in ``tests/sparql/test_paths.py``.)

Run as a script (CI gate)::

    PYTHONPATH=src python benchmarks/query_parity.py [workdir]

Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.corpus import CorpusBuilder, write_corpus
from repro.queries import OPMW_EXPORT_NS, exemplar_queries
from repro.sparql import QueryEngine
from repro.store import QuadStore, StoreDataset, ingest_corpus
from repro.taverna import TAVERNA_RUN_NS

SEED = 2013

#: Property-path parity queries: closure, sequence and inverse shapes, and
#: the both-unbound `p*` whose zero-length pairs cover every node.
PATH_QUERIES = {
    "P1-lineage": """
        PREFIX prov: <http://www.w3.org/ns/prov#>
        SELECT ?out ?src WHERE { ?out (prov:used|^prov:wasGeneratedBy)+ ?src }
    """,
    "P2-sequence": """
        PREFIX prov: <http://www.w3.org/ns/prov#>
        SELECT ?a ?b WHERE { ?a (prov:used/prov:wasGeneratedBy)+ ?b }
    """,
    "P3-star": """
        PREFIX prov: <http://www.w3.org/ns/prov#>
        SELECT ?a ?b WHERE { ?a prov:used* ?b }
    """,
    "P4-inverse": """
        PREFIX prov: <http://www.w3.org/ns/prov#>
        SELECT ?e ?act WHERE { ?act ^prov:wasGeneratedBy ?e }
    """,
}


def run_lineage_query(corpus) -> str:
    """P5: the lineage of every output of the corpus's first successful
    Taverna run (the run ``exemplar_queries`` picks) — a BGP whose plain
    steps feed a bound closure its whole ``?out`` column."""
    trace = next(t for t in corpus.by_system("taverna") if not t.failed)
    run = TAVERNA_RUN_NS.term(f"{trace.run_id}/")
    return (
        "SELECT ?out ?src WHERE { "
        f"?p wfprov:wasPartOfWorkflowRun {run.n3()} . "
        "?out prov:wasGeneratedBy ?p . "
        "?out (prov:wasGeneratedBy/prov:used)+ ?src }"
    )


def _engine(source) -> QueryEngine:
    engine = QueryEngine(source, cache_size=0)
    # The exemplar queries rely on the exporters' extension prefixes
    # (mirrors CorpusQueries).
    engine.namespaces.bind(
        "tavernaprov", "http://ns.taverna.org.uk/2012/tavernaprov/", replace=False
    )
    engine.namespaces.bind("opmw-export", OPMW_EXPORT_NS.base, replace=False)
    return engine


def _canon_rows(table):
    """Order-insensitive canonical form: sorted tuples of (var, n3)."""
    return sorted(
        tuple(
            sorted((name, term.n3()) for name, term in row.asdict().items())
        )
        for row in table
    )


def run_parity(workdir: Path) -> int:
    corpus = CorpusBuilder(seed=SEED).build()
    corpus_dir = workdir / "corpus"
    write_corpus(corpus, corpus_dir)
    path_queries = {**PATH_QUERIES, "P5-run-lineage": run_lineage_query(corpus)}
    queries = {**exemplar_queries(corpus), **path_queries}

    stores = {}
    for name, jobs in (("store-j1", 1), ("store-j2", 2)):
        store = QuadStore(workdir / name)
        report = ingest_corpus(store, corpus_dir, jobs=jobs)
        print(f"ingested {name}: {len(report.parsed)} files, "
              f"path index {report.path_index}")
        stores[name] = store

    engines = {"memory": _engine(corpus.dataset())}
    for name, store in stores.items():
        engines[name] = _engine(StoreDataset(store))

    failures = 0
    summary = {}
    try:
        for name, text in sorted(queries.items()):
            results = {source: _canon_rows(engine.query(text))
                       for source, engine in engines.items()}
            baseline = results["memory"]
            mismatched = [
                source for source, rows in results.items() if rows != baseline
            ]
            if mismatched:
                failures += 1
                print(f"FAIL {name}: rows diverge from memory: "
                      f"{', '.join(mismatched)}")
            else:
                print(f"ok   {name}: {len(baseline)} rows identical "
                      f"across {len(results)} sources")
            summary[name] = {"rows": len(baseline)}
            if name in path_queries:
                continue

            digests = {source: engine.explain(text).digest
                       for source, engine in engines.items()}
            if digests["store-j1"] != digests["store-j2"]:
                failures += 1
                print(f"FAIL {name}: store plan digests diverge: {digests}")
            summary[name]["digests"] = {
                "store": digests["store-j1"],
                "memory": digests["memory"],
            }

        # The index derives purely from the (byte-identical) segments,
        # so its own files must not depend on the ingest job count.
        from repro.pathindex import FWD_FILE, INV_FILE

        for file_name in (FWD_FILE, INV_FILE):
            bytes_j1 = (stores["store-j1"].path / file_name).read_bytes()
            bytes_j2 = (stores["store-j2"].path / file_name).read_bytes()
            if bytes_j1 != bytes_j2:
                failures += 1
                print(f"FAIL path index {file_name} differs between "
                      f"--jobs 1 and --jobs 2 builds")
            else:
                print(f"ok   path index {file_name}: "
                      f"{len(bytes_j1)} bytes identical across job counts")
    finally:
        for store in stores.values():
            store.close()

    print(json.dumps(summary, indent=2))
    if failures:
        print(f"query parity FAILED: {failures} mismatch(es)")
        return 1
    print("query parity OK")
    return 0


def main(argv) -> int:
    if len(argv) > 1:
        workdir = Path(argv[1])
        workdir.mkdir(parents=True, exist_ok=True)
        return run_parity(workdir)
    with tempfile.TemporaryDirectory(prefix="query-parity-") as tmp:
        return run_parity(Path(tmp))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
