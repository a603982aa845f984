"""Paper artifacts: Tables 1–3, Figure 1, Section 2, profile and report.

Builds the corpus once (seed 2013), checks it against the paper's
numbers and writes the seven texts of
:meth:`repro.report.PaperArtifacts.files` to ``benchmarks/_artifacts/``
so EXPERIMENTS.md can cite them; CI diffs the directory.  Nothing here
reports a timing — that is ``benchmarks/harness``::

    PYTHONPATH=src python -m pytest benchmarks/bench_artifacts.py -q
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.corpus import DOMAINS, FAILURE_MIX, CorpusBuilder, table1
from repro.report import PaperArtifacts

ARTIFACTS = Path(__file__).parent / "_artifacts"


@pytest.fixture(scope="module")
def artifacts():
    return PaperArtifacts(CorpusBuilder(seed=2013).build())


def test_section2_runs(artifacts):
    """S2: 120 workflows, each run at least once; 198 runs; 30 failed."""
    corpus, stats = artifacts.corpus, artifacts.statistics
    assert len(corpus.plan) == 198
    assert len({entry.template_id for entry in corpus.plan}) == 120
    planned_causes = Counter(entry.fault_cause for entry in corpus.plan if entry.will_fail)
    assert planned_causes == FAILURE_MIX  # 30 failures, resource unavailability leading

    assert stats["workflows"] == 120
    assert stats["runs"] == 198
    assert stats["failed_runs"] == 30
    assert stats["failure_causes"] == FAILURE_MIX
    for trace in corpus.failed_traces():
        executed = set(trace.result.executed_steps())
        planned = set(corpus.templates[trace.template_id].processors)
        assert executed < planned or trace.result.failed_step in executed


def test_table1_rows(artifacts):
    """T1: the constant rows match the paper; the size row is measured."""
    by_field = {row.field: row.value for row in table1(artifacts.corpus)}
    assert list(by_field) == [
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
    assert artifacts.statistics["size_bytes"] > 1024 * 1024  # multi-megabyte corpus
    assert artifacts.statistics["triples"] > 30_000


def test_figure1_shape(artifacts):
    """F1: the built templates give the paper's per-domain split."""
    histogram = artifacts.corpus.domain_histogram()
    assert histogram == [(d.name, d.taverna_workflows, d.wings_workflows) for d in DOMAINS]
    assert len(histogram) == 12
    assert sum(t for _, t, _ in histogram) == 70
    assert sum(w for _, _, w in histogram) == 50

    by_name = {name: (t, w) for name, t, w in histogram}
    # The figure's documented profile:
    assert by_name["Bioinformatics"][0] == max(t for _, t, _ in histogram)
    assert by_name["Machine Learning"][1] > by_name["Machine Learning"][0]
    assert by_name["Biodiversity"][1] == 0  # Taverna-only domain
    assert by_name["Bioinformatics"][0] > by_name["Bioinformatics"][1]


def test_coverage_and_maintenance_match_paper(artifacts):
    """T2/T3: every cell, Table 3's inferred stars included, equals the
    paper's; the §6 maintenance pass finds the corpus aligned."""
    assert artifacts.deviations() == []


def test_profile(artifacts):
    assert artifacts.profile["traces"] == 198


def test_write_artifacts(artifacts):
    files = artifacts.files()
    assert sorted(files) == [
        "corpus_profile.json", "figure1.txt", "reproduction_report.md",
        "section2_stats.json", "table1.txt", "table2.txt", "table3.txt",
    ]
    ARTIFACTS.mkdir(exist_ok=True)
    for name, text in files.items():
        (ARTIFACTS / name).write_text(text, encoding="utf-8", newline="\n")
