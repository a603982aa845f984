"""Tests for §6 interoperability over both systems and the corpus profiler."""

import datetime as dt
from collections import Counter

import pytest

from repro.corpus.profile import profile_corpus
from repro.queries import (
    Q1_WORKFLOW_RUNS,
    CorpusQueries,
    taverna_workflow_iri,
    wings_template_iri,
)
from repro.taverna import TAVERNA_RUN_NS


@pytest.fixture(scope="module")
def queries(corpus_dataset):
    return CorpusQueries(corpus_dataset)


@pytest.fixture(scope="module")
def runs(queries):
    """Q1: every top-level run of either system with its start and end."""
    return list(queries.workflow_runs())


@pytest.fixture(scope="module")
def template_counts(corpus, queries):
    """Q2 per template: ``{"total": runs, "failed": failures}``."""
    def iri(template):
        if template.system == "taverna":
            return taverna_workflow_iri(template.template_id, template.name)
        return wings_template_iri(template.template_id)

    return {tid: queries.runs_of_template(iri(t)) for tid, t in corpus.templates.items()}


def _system(run) -> str:
    return "taverna" if run.value.startswith(TAVERNA_RUN_NS.base) else "wings"


class TestInteropView:
    """§6: the exemplar queries' UNION over both systems' idioms is one
    view of every run — Q1 runs and times, Q2 totals and failures per
    template, Q5 the responsible agent."""

    def test_all_runs_unified(self, runs):
        assert len(runs) == 198

    def test_system_split(self, runs):
        assert Counter(_system(row.run) for row in runs) == {"taverna": 112, "wings": 86}

    def test_failed_runs_cross_system(self, template_counts, corpus):
        failed = {tid: n["failed"] for tid, n in template_counts.items() if n["failed"]}
        assert sum(failed.values()) == 30
        assert {corpus.templates[tid].system for tid in failed} == {"taverna", "wings"}

    def test_every_run_has_times_and_agent(self, runs, queries):
        for row in runs:
            assert row.start is not None
            assert row.end is not None
            assert row.end.to_python() - row.start.to_python() > dt.timedelta(0)
            assert queries.who_executed(row.run)

    def test_status_matches_corpus(self, template_counts, corpus):
        for template_id, counts in template_counts.items():
            traces = corpus.by_template(template_id)
            assert counts == {"total": len(traces),
                              "failed": sum(1 for t in traces if t.failed)}, template_id

    def test_template_links_resolve(self, template_counts, corpus):
        multi = corpus.multi_run_templates()[0]
        assert template_counts[multi]["total"] == 3

    def test_failure_rate(self, template_counts):
        failed = sum(n["failed"] for n in template_counts.values())
        total = sum(n["total"] for n in template_counts.values())
        assert abs(failed / total - 30 / 198) < 1e-9

    def test_mean_durations_positive(self, runs):
        durations = {"taverna": [], "wings": []}
        for row in runs:
            durations[_system(row.run)].append(row.end.to_python() - row.start.to_python())
        for values in durations.values():
            assert sum(values, dt.timedelta(0)) / len(values) > dt.timedelta(0)

    def test_timeline_sorted(self, runs):
        starts = [row.start.to_python() for row in runs]
        assert len(starts) == 198
        assert starts == sorted(starts)

    def test_query_text_is_single_interoperable_query(self):
        assert "UNION" in Q1_WORKFLOW_RUNS
        assert "wfprov:WorkflowRun" in Q1_WORKFLOW_RUNS
        assert "opmw:WorkflowExecutionAccount" in Q1_WORKFLOW_RUNS


class TestCorpusProfile:
    @pytest.fixture(scope="class")
    def profile(self, corpus):
        return profile_corpus(corpus)

    def test_trace_count(self, profile):
        assert len(profile.traces) == 198

    def test_summary_shape(self, profile):
        summary = profile.summary()
        assert summary["traces"] == 198
        assert summary["total_triples"] > 30_000
        assert summary["triples_per_trace"]["min"] > 0
        assert summary["triples_per_trace"]["min"] <= summary["triples_per_trace"]["max"]

    def test_failed_traces_are_smaller_on_average(self, profile):
        summary = profile.summary()
        assert summary["failed_trace_mean_triples"] < summary["successful_trace_mean_triples"]

    def test_top_properties_are_prov(self, profile):
        top = profile.summary()["top_prov_properties"]
        assert top and all(entry["property"].startswith("prov:") for entry in top)
        names = [entry["property"] for entry in top]
        assert "prov:used" in names
        assert "prov:wasGeneratedBy" in names

    def test_by_domain_rollup(self, profile, corpus):
        rollup = profile.by_domain()
        assert len(rollup) == 12
        assert sum(d["traces"] for d in rollup.values()) == 198
        assert sum(d["failed"] for d in rollup.values()) == 30

    def test_per_trace_counts_consistent(self, profile, corpus):
        by_id = {t.run_id: t for t in profile.traces}
        sample = corpus.traces[0]
        assert by_id[sample.run_id].triples == len(sample.graph())
        assert by_id[sample.run_id].size_bytes == sample.size_bytes


class TestTavernaCollections:
    def test_list_artifacts_are_collections(self, corpus):
        from repro.rdf import PROV, RDF

        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        graph = trace.graph()
        collections = list(graph.subjects(RDF.type, PROV.Collection))
        assert collections
        for collection in collections:
            members = list(graph.objects(collection, PROV.hadMember))
            assert members, "a collection must have members"

    def test_wings_traces_have_no_collections(self, corpus):
        from repro.rdf import PROV, RDF

        trace = next(t for t in corpus.by_system("wings") if not t.failed)
        assert not list(trace.graph().subjects(RDF.type, PROV.Collection))
