"""End-to-end integration tests: the full corpus pipeline.

These walk the complete path a corpus consumer takes — build → store →
load → query → analyze — and assert the paper's headline numbers at each
stage, plus cross-cutting invariants no unit test covers (every trace
valid, every trace parseable, both systems queryable together).
"""

import pytest

from repro.apps import DecayDetector, DependencyAnalyzer, RunDebugger
from repro.coverage import coverage_report
from repro.queries import CorpusQueries
from repro.rdf import parse_trig, parse_turtle
from repro.sparql import QueryEngine


class TestFullPipeline:
    def test_build_store_load_query(self, corpus, tmp_path):
        from repro.corpus import load_corpus, write_corpus

        write_corpus(corpus, tmp_path)
        stored = load_corpus(tmp_path)
        queries = CorpusQueries(stored.dataset())
        assert len(queries.workflow_runs()) == 198

    def test_every_trace_parses_and_matches(self, corpus):
        for trace in corpus.traces:
            if trace.rdf_format == "turtle":
                parsed = parse_turtle(trace.text)
                assert len(parsed) == len(trace.graph())
            else:
                parsed = parse_trig(trace.text)
                assert len(parsed.union_graph()) > 0

    def test_every_trace_is_constraint_valid(self, corpus):
        """The PROV-CONSTRAINTS rules find no error in any shipped text."""
        for trace in corpus.traces:
            parse = parse_turtle if trace.rdf_format == "turtle" else parse_trig
            errors = [(rule, row) for rule, severity, row
                      in CorpusQueries(parse(trace.text)).trace_violations()
                      if severity == "error"]
            assert not errors, (trace.run_id, errors)

    def test_coverage_tables_reproduce_paper(self, corpus):
        report = coverage_report(
            corpus.system_graph("taverna"), corpus.system_graph("wings")
        )
        assert report.matches_paper(), report.differences()

    def test_failed_traces_shorter_than_successful(self, corpus):
        # Failed runs export truncated provenance: fewer triples on average
        # than successful runs of the same template.
        for trace in corpus.failed_traces():
            siblings = [t for t in corpus.by_template(trace.template_id)
                        if not t.failed]
            if siblings:
                assert len(trace.graph()) < max(len(s.graph()) for s in siblings)

    def test_all_applications_on_all_failed_runs(self, corpus):
        from repro.taverna import TAVERNA_RUN_NS
        from repro.wings import OPMW_EXPORT_NS

        detector = DecayDetector(corpus)
        for trace in corpus.failed_traces():
            graph = trace.graph()
            # dependency analysis still works on the partial trace
            analyzer = DependencyAnalyzer(graph)
            assert analyzer.all_dependency_pairs() or trace.result.failed_step == \
                trace.result.executed_steps()[0]
            # debugging finds the culprit
            if trace.system == "taverna":
                iri = TAVERNA_RUN_NS.term(f"{trace.run_id}/")
            else:
                iri = OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{trace.run_id}")
            assert RunDebugger(graph).debug(iri).failed

    def test_interoperable_counting(self, corpus_dataset):
        """One SPARQL query counts runs across both systems' idioms."""
        engine = QueryEngine(corpus_dataset)
        rows = engine.select("""
            SELECT (COUNT(?r) AS ?n) WHERE {
              { ?r a wfprov:WorkflowRun .
                FILTER NOT EXISTS { ?r wfprov:wasPartOfWorkflowRun ?p } }
              UNION
              { ?r a opmw:WorkflowExecutionAccount }
            }
        """)
        assert rows[0].n.to_python() == 198

    def test_failed_run_count_via_sparql(self, corpus_dataset):
        engine = QueryEngine(corpus_dataset)
        engine.namespaces.bind(
            "tavernaprov", "http://ns.taverna.org.uk/2012/tavernaprov/", replace=False
        )
        rows = engine.select("""
            SELECT (COUNT(?r) AS ?n) WHERE {
              { ?r tavernaprov:runStatus "failed" }
              UNION
              { ?r a opmw:WorkflowExecutionAccount ; opmw:hasStatus "FAILURE" }
            }
        """)
        assert rows[0].n.to_python() == 30

    def test_decay_detector_consistent_with_plan(self, corpus):
        detector = DecayDetector(corpus)
        assert len(detector.detect_all()) == 39
        assert len(detector.decayed_templates()) + len(detector.stable_templates()) == 39
