"""Tests for applying repairs (decay application, closing the loop)."""

import pytest

from repro.apps import DecayDetector
from repro.queries import CorpusQueries
from repro.rdf import PROV, RDF


@pytest.fixture(scope="module")
def detector(corpus):
    return DecayDetector(corpus)


@pytest.fixture(scope="module")
def repairable_run(corpus, detector):
    return next(t.run_id for t in corpus.failed_traces()
                if detector.repair_candidates(t.run_id) is not None)


class TestApplyRepair:
    def test_outputs_substituted(self, detector, repairable_run, corpus):
        record = detector.apply_repair(repairable_run)
        assert record is not None
        donor = corpus.trace(record.donor_run_id)
        template = corpus.templates[donor.template_id]
        assert set(record.outputs) == {p.name for p in template.outputs}

    def test_repair_has_its_own_provenance(self, detector, repairable_run):
        record = detector.apply_repair(repairable_run)
        graph = record.graph
        assert graph.count(None, RDF.type, PROV.Activity) == 1
        assert graph.count(None, RDF.type, PROV.Agent) == 1
        # one usage + one generation + one revision per substituted output
        assert graph.count(None, PROV.used, None) == len(record.outputs)
        assert graph.count(None, PROV.wasGeneratedBy, None) == len(record.outputs)
        assert graph.count(None, PROV.wasRevisionOf, None) == len(record.outputs)
        assert graph.count(None, PROV.wasDerivedFrom, None) == 0

    def test_repair_document_is_valid_prov(self, detector, repairable_run):
        record = detector.apply_repair(repairable_run)
        assert CorpusQueries(record.graph).trace_violations() == []

    def test_repair_graph_queryable(self, detector, repairable_run):
        from repro.sparql import QueryEngine

        record = detector.apply_repair(repairable_run)
        engine = QueryEngine(record.graph)
        rows = engine.select(
            "SELECT ?sub ?donor WHERE { ?sub prov:wasRevisionOf ?donor }"
        )
        assert len(rows) == len(record.outputs)

    def test_unrepairable_returns_none(self, detector, corpus):
        no_history = next(
            t.run_id for t in corpus.failed_traces()
            if len(corpus.by_template(t.template_id)) == 1
        )
        assert detector.apply_repair(no_history) is None

    def test_all_six_repairable_runs_apply(self, detector, corpus):
        applied = [detector.apply_repair(t.run_id) for t in corpus.failed_traces()]
        records = [r for r in applied if r is not None]
        assert len(records) == 6
        assert all(r.outputs for r in records)
