"""repro — reproduction of the EDBT 2013 ProvBench workflow PROV-corpus.

A self-contained implementation of *"A Workflow PROV-Corpus based on
Taverna and Wings"* (Belhajjame et al., EDBT/ICDT Workshops 2013): an RDF
substrate with a SPARQL engine, PROV-O support (the patterns the
exporters write, inference, and the PROV-CONSTRAINTS rules as SPARQL),
Taverna- and Wings-like workflow systems with their native provenance
exporters, and the corpus itself — 120 workflows,
198 runs, 30 failures — plus the paper's exemplar queries, coverage
tables, and applications.

Quickstart::

    from repro import CorpusBuilder, CorpusQueries

    corpus = CorpusBuilder().build()
    queries = CorpusQueries(corpus.dataset())
    for row in queries.workflow_runs():
        print(row.run, row.start, row.end)
"""

from .corpus import (
    Corpus,
    CorpusBuilder,
    CorpusTrace,
    DOMAINS,
    StoredCorpus,
    TemplateGenerator,
    format_table1,
    load_corpus,
    table1,
    write_corpus,
)
from .coverage import CoverageReport, coverage_report, format_table2, format_table3
from .queries import CorpusQueries
from .sparql import QueryEngine

__version__ = "1.0.0"

__all__ = [
    "Corpus",
    "CorpusBuilder",
    "CorpusTrace",
    "StoredCorpus",
    "TemplateGenerator",
    "DOMAINS",
    "write_corpus",
    "load_corpus",
    "table1",
    "format_table1",
    "coverage_report",
    "CoverageReport",
    "format_table2",
    "format_table3",
    "CorpusQueries",
    "QueryEngine",
    "__version__",
]
