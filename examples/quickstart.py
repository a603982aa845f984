#!/usr/bin/env python3
"""Quickstart: build the PROV-corpus and reproduce the paper's headline facts.

Builds the full corpus (120 workflows, 198 runs, 30 failures) in memory,
prints Table 1 and the Figure 1 histogram, runs exemplar query 1, and shows
a fragment of a real trace — everything the paper's Sections 1–2 describe,
in under a minute.

Run:  python examples/quickstart.py
"""

from repro import CorpusBuilder, CorpusQueries, format_table1
from repro.report import format_figure1


def main() -> None:
    print("Building the Wf4Ever-PROV corpus (seed 2013)...")
    corpus = CorpusBuilder(seed=2013).build()
    stats = corpus.statistics()
    print(f"  -> {stats['workflows']} workflows, {stats['runs']} runs "
          f"({stats['failed_runs']} failed), "
          f"{stats['size_bytes'] / (1024 * 1024):.1f} MB of RDF\n")

    # --- Table 1: the corpus fact sheet -----------------------------------
    print(format_table1(corpus))

    # --- Figure 1: domains of workflows ------------------------------------
    print()
    print(format_figure1(corpus))

    # --- Exemplar query 1 ---------------------------------------------------
    print("\nQuery 1: workflow runs with start and end times (first 5):")
    queries = CorpusQueries(corpus.dataset())
    for row in list(queries.workflow_runs())[:5]:
        run_name = row.run.value.rstrip("/").rsplit("/", 1)[-1]
        print(f"  {run_name:<40} {row.start.lexical}  ->  {row.end.lexical}")

    # --- A real trace --------------------------------------------------------
    trace = corpus.traces[0]
    print(f"\nFirst 12 lines of trace {trace.run_id} ({trace.rdf_format}):")
    for line in trace.text.splitlines()[:12]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
