"""Experiment Q1–Q6 — the Section 4 exemplar queries.

One benchmark per exemplar query, evaluated with the SPARQL engine over
the full corpus dataset, asserting the paper-documented behavior (incl.
the system restrictions: Q4 timestamps Taverna-only, Q6 Wings-only).
"""

import json

import pytest

from repro.queries import CorpusQueries, exemplar_queries, \
    taverna_workflow_iri, wings_template_iri
from repro.taverna import TAVERNA_RUN_NS
from repro.wings import OPMW_EXPORT_NS
from .conftest import write_artifact


@pytest.fixture(scope="module")
def queries(corpus_dataset):
    return CorpusQueries(corpus_dataset)


@pytest.fixture(scope="module")
def taverna_trace(corpus):
    return next(t for t in corpus.by_system("taverna") if not t.failed)


@pytest.fixture(scope="module")
def wings_trace(corpus):
    return next(t for t in corpus.by_system("wings") if not t.failed)


def test_q1_workflow_runs(queries, benchmark, artifacts_dir):
    table = benchmark(queries.workflow_runs)
    assert len(table) == 198
    assert all(row.start is not None for row in table)
    write_artifact(artifacts_dir, "query1_runs.csv", table.to_csv())


def test_q2_runs_of_template(queries, corpus, benchmark):
    template_id = next(t for t in corpus.multi_run_templates() if t.startswith("t-"))
    template = corpus.templates[template_id]
    iri = taverna_workflow_iri(template_id, template.name)

    counts = benchmark(queries.runs_of_template, iri)

    assert counts["total"] == 3


def test_q3_template_io(queries, corpus, taverna_trace, benchmark):
    template = corpus.templates[taverna_trace.template_id]
    iri = taverna_workflow_iri(template.template_id, template.name)

    io = benchmark(queries.template_io, iri)

    assert io
    for entry in io.values():
        assert entry["inputs"]


def test_q4_process_runs_taverna(queries, taverna_trace, benchmark):
    iri = TAVERNA_RUN_NS.term(f"{taverna_trace.run_id}/")

    rows = benchmark(queries.process_runs, iri)

    assert len(rows) > 0
    assert all(row.start is not None for row in rows)  # Taverna-only timestamps


def test_q4_process_runs_wings_no_timestamps(queries, wings_trace):
    iri = OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{wings_trace.run_id}")
    rows = queries.process_runs(iri)
    assert len(rows) > 0
    assert all(row.start is None for row in rows)


def test_q5_who_executed(queries, taverna_trace, wings_trace, benchmark):
    taverna_iri = TAVERNA_RUN_NS.term(f"{taverna_trace.run_id}/")

    agents = benchmark(queries.who_executed, taverna_iri)

    assert agents == ["http://ns.taverna.org.uk/2011/software/taverna-2.4.0"]
    wings_iri = OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{wings_trace.run_id}")
    assert queries.who_executed(wings_iri) == [
        f"http://www.opmw.org/export/resource/Agent/{wings_trace.user}"
    ]


def test_query_plan_digests(queries, corpus, artifacts_dir):
    """EXPLAIN every exemplar query and pin the plan digests.

    The digests are deterministic for a given corpus build, so this
    artifact (``query_plans.json``) turns silent planner changes into a
    visible diff in the cross-PR trajectory (see ``bench_report.py``).
    """
    texts = exemplar_queries(corpus)
    plans = {name: queries.engine.explain(text) for name, text in texts.items()}
    again = {name: queries.engine.explain(text) for name, text in texts.items()}
    assert {n: p.digest for n, p in plans.items()} == \
        {n: p.digest for n, p in again.items()}
    payload = {
        name: {
            "digest": plan.digest,
            "operators": plan.trace_args()["plan_operators"],
            "text": plan.to_text(),
        }
        for name, plan in sorted(plans.items())
    }
    write_artifact(artifacts_dir, "query_plans.json", json.dumps(payload, indent=2))


def test_q6_services_wings_only(queries, taverna_trace, wings_trace, benchmark):
    wings_iri = OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{wings_trace.run_id}")

    services = benchmark(queries.services_executed, wings_iri)

    assert services
    taverna_iri = TAVERNA_RUN_NS.term(f"{taverna_trace.run_id}/")
    assert queries.services_executed(taverna_iri) == []
