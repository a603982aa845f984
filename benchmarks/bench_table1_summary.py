"""Experiment T1 — Table 1: the corpus fact sheet.

Regenerates every row of Table 1 from the built corpus (statistics over
all 198 traces) and writes ``_artifacts/table1.txt``.  The constant
rows must match the paper verbatim; the size row is measured (the paper's
360 MB was the authors' testbed value — see EXPERIMENTS.md).
"""

from repro.corpus import format_table1, table1
from .conftest import write_artifact


def test_table1_rows_match_paper(corpus, artifacts_dir):
    rows = table1(corpus)

    by_field = {r.field: r.value for r in rows}
    assert [r.field for r in rows] == [
        "Data format", "Data model", "Size",
        "Tools used for generating provenance", "Domain",
        "Submission group", "License",
    ]
    assert by_field["Data model"] == "PROV-O"
    assert "RDF" in by_field["Data format"]
    assert "Taverna and Wings" in by_field["Tools used for generating provenance"]
    assert "12 domains" in by_field["Domain"]
    assert by_field["Submission group"] == "Wf4Ever-Wings"
    assert "Creative Commons Attribution 3.0" in by_field["License"]
    assert "Megabytes" in by_field["Size"]

    write_artifact(artifacts_dir, "table1.txt", format_table1(corpus))


def test_corpus_size_measured(corpus):
    stats = corpus.statistics()
    assert stats["size_bytes"] > 1024 * 1024  # multi-megabyte corpus
    assert stats["triples"] > 30_000
