#!/usr/bin/env python3
"""One trace, every serialization — plus a path-based lineage query.

Takes a single run's provenance from the corpus and shows it in the
formats the library speaks: Turtle (the corpus's primary format),
N-Triples and TriG — and then asks a transitive lineage question with a
SPARQL property path.

Run:  python examples/provenance_formats_tour.py
"""

from repro import CorpusBuilder
from repro.rdf import serialize_ntriples
from repro.sparql import QueryEngine


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    corpus = CorpusBuilder(seed=2013).build()
    trace = next(t for t in corpus.by_system("taverna")
                 if not t.failed and len(t.result.step_runs) == 3)
    print(f"Trace: {trace.run_id} ({trace.template_name}, "
          f"{len(trace.graph())} triples)")

    banner("1. Turtle (as shipped in the corpus)")
    print("\n".join(trace.text.splitlines()[:16]))
    print("  ...")

    banner("2. N-Triples (the same graph, one triple per line)")
    print("\n".join(serialize_ntriples(trace.graph()).splitlines()[:4]))
    print("  ...")
    wings = next(t for t in corpus.by_system("wings") if not t.failed)
    print(f"\nTriG — Wings traces ship as named graphs ({wings.run_id}):")
    trig = wings.text.splitlines()
    first_graph = next(i for i, line in enumerate(trig) if line.endswith("{"))
    print("\n".join(trig[first_graph:first_graph + 5]))
    print("  ...")

    banner("3. Transitive lineage via a SPARQL property path")
    engine = QueryEngine(trace.graph())
    rows = engine.select("""
        SELECT DISTINCT ?product ?source WHERE {
          ?product (prov:wasGeneratedBy/prov:used)+ ?source .
          FILTER NOT EXISTS { ?source prov:wasGeneratedBy ?anything }
        }
    """)
    print("data products and the *primary* inputs they derive from:")
    for row in rows:
        product = row.product.value.rstrip("/").rsplit("/", 1)[-1][:20]
        source = row.source.value.rstrip("/").rsplit("/", 1)[-1][:20]
        print(f"  {product}  <=derives-from=  {source}")


if __name__ == "__main__":
    main()
