"""Tests for the three Section 3 applications."""

import pytest

from repro.apps import DecayDetector, DependencyAnalyzer, RunDebugger
from repro.rdf import PROV
from repro.rdf.terms import IRI
from repro.taverna import TAVERNA_RUN_NS
from repro.wings import OPMW_EXPORT_NS


@pytest.fixture(scope="module")
def ok_taverna(corpus):
    return next(t for t in corpus.by_system("taverna") if not t.failed)


@pytest.fixture(scope="module")
def failed_taverna(corpus):
    return next(t for t in corpus.by_system("taverna") if t.failed)


@pytest.fixture(scope="module")
def failed_wings(corpus):
    return next(t for t in corpus.by_system("wings") if t.failed)


class TestDependencies:
    @pytest.fixture(scope="class")
    def analyzer(self, ok_taverna):
        return DependencyAnalyzer(ok_taverna.graph())

    def test_generating_process_of_output(self, analyzer, ok_taverna):
        output = analyzer.generated_entities()[0]
        process = analyzer.generating_process(output)
        assert process is not None

    def test_workflow_inputs_have_no_generator(self, analyzer, ok_taverna):
        inputs = {
            TAVERNA_RUN_NS.term(f"{ok_taverna.run_id}/data/{item.checksum}")
            for item in ok_taverna.result.inputs.values()
        }
        for input_iri in inputs:
            assert analyzer.generating_process(input_iri) is None

    def test_transitive_dependencies_reach_inputs(self, analyzer, ok_taverna):
        outputs = {
            TAVERNA_RUN_NS.term(f"{ok_taverna.run_id}/data/{item.checksum}")
            for item in ok_taverna.result.outputs.values()
        }
        inputs = {
            TAVERNA_RUN_NS.term(f"{ok_taverna.run_id}/data/{item.checksum}")
            for item in ok_taverna.result.inputs.values()
        }
        for output in outputs:
            deps = analyzer.transitive_dependencies(output)
            assert deps & inputs, "every output must trace back to an input"

    def test_dependents_inverse_of_dependencies(self, analyzer):
        pairs = analyzer.all_dependency_pairs()
        product, source = pairs[0]
        assert product in analyzer.dependents_of(source)

    def test_derivation_path_exists(self, analyzer, ok_taverna):
        output = next(
            TAVERNA_RUN_NS.term(f"{ok_taverna.run_id}/data/{item.checksum}")
            for item in ok_taverna.result.outputs.values()
        )
        some_input = next(
            TAVERNA_RUN_NS.term(f"{ok_taverna.run_id}/data/{item.checksum}")
            for item in ok_taverna.result.inputs.values()
        )
        path = analyzer.derivation_path(output, some_input)
        assert path is not None and path[0] == output and path[-1] == some_input

    def test_derivation_path_missing(self, analyzer):
        assert analyzer.derivation_path(IRI("http://x/a"), IRI("http://x/b")) is None

    def test_dependency_graph_is_dag(self, analyzer):
        # Kahn's algorithm: peel sources nothing depends on until none
        # is left; a cycle would strand its members.
        pairs = analyzer.all_dependency_pairs()
        pending = {}
        for product, source in pairs:
            pending.setdefault(product, set()).add(source)
            pending.setdefault(source, set())
        while pending:
            leaves = {node for node, sources in pending.items() if not sources}
            assert leaves, f"derivation cycle among {sorted(pending)}"
            pending = {node: sources - leaves
                       for node, sources in pending.items() if node not in leaves}

    def test_wings_trace_also_analyzable(self, corpus):
        trace = next(t for t in corpus.by_system("wings") if not t.failed)
        analyzer = DependencyAnalyzer(trace.graph())
        assert analyzer.all_dependency_pairs()


class TestDebugging:
    def test_taverna_failed_run(self, failed_taverna, corpus):
        run_iri = TAVERNA_RUN_NS.term(f"{failed_taverna.run_id}/")
        report = RunDebugger(failed_taverna.graph()).debug(run_iri)
        assert report.failed
        assert report.system == "taverna"
        assert len(report.responsible_processes) == 1
        assert failed_taverna.failed_step in report.responsible_processes[0].value
        template = corpus.templates[failed_taverna.template_id]
        executed = set(failed_taverna.result.executed_steps())
        expected_affected = set(template.processors) - executed
        assert set(report.affected_steps) == expected_affected

    def test_wings_failed_run(self, failed_wings, corpus):
        account = OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{failed_wings.run_id}")
        report = RunDebugger(failed_wings.graph()).debug(account)
        assert report.failed and report.system == "wings"
        assert report.responsible_processes
        assert report.failure_causes
        template = corpus.templates[failed_wings.template_id]
        executed = set(failed_wings.result.executed_steps())
        assert set(report.affected_steps) == set(template.processors) - executed

    def test_successful_run_reports_clean(self, corpus):
        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        run_iri = TAVERNA_RUN_NS.term(f"{trace.run_id}/")
        report = RunDebugger(trace.graph()).debug(run_iri)
        assert not report.failed
        assert not report.responsible_processes
        assert "completed normally" in report.summary()

    def test_unknown_run_raises(self, failed_taverna):
        with pytest.raises(KeyError):
            RunDebugger(failed_taverna.graph()).debug(IRI("http://nowhere.example/run"))

    def test_summary_mentions_cause(self, failed_taverna):
        run_iri = TAVERNA_RUN_NS.term(f"{failed_taverna.run_id}/")
        report = RunDebugger(failed_taverna.graph()).debug(run_iri)
        assert failed_taverna.failure_cause in report.summary()

    def test_every_failed_trace_debuggable(self, corpus):
        for trace in corpus.failed_traces():
            if trace.system == "taverna":
                iri = TAVERNA_RUN_NS.term(f"{trace.run_id}/")
            else:
                iri = OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{trace.run_id}")
            report = RunDebugger(trace.graph()).debug(iri)
            assert report.failed
            assert report.responsible_processes, trace.run_id


class TestDecay:
    @pytest.fixture(scope="class")
    def detector(self, corpus):
        return DecayDetector(corpus)

    def test_all_multi_run_templates_analyzed(self, detector, corpus):
        reports = detector.detect_all()
        assert len(reports) == 39

    def test_decayed_and_stable_partition(self, detector):
        decayed = set(detector.decayed_templates())
        stable = set(detector.stable_templates())
        assert decayed and stable
        assert not decayed & stable

    def test_decay_signal_matches_input_variants(self, detector, corpus):
        # Templates whose planned runs used drifting input variants must be
        # exactly the decayed ones (with >= 2 successful runs).
        variant_templates = set()
        for entry in corpus.plan:
            if entry.variant > 0:
                variant_templates.add(entry.template_id)
        decayed = set(detector.decayed_templates())
        for template_id in decayed:
            assert template_id in variant_templates

    def test_stable_template_snapshots_identical(self, detector, corpus):
        stable_id = detector.stable_templates()[0]
        report = detector.analyze_template(stable_id)
        checks = [s.outputs for s in report.snapshots if s.status == "ok"]
        assert all(c == checks[0] for c in checks)

    def test_summary_text(self, detector):
        decayed_report = detector.analyze_template(detector.decayed_templates()[0])
        assert "DECAY detected" in decayed_report.summary()
        stable_report = detector.analyze_template(detector.stable_templates()[0])
        assert "stable across" in stable_report.summary()

    def test_single_run_template_insufficient(self, detector, corpus):
        single = next(tid for tid in corpus.templates
                      if tid not in corpus.multi_run_templates())
        report = detector.analyze_template(single)
        assert "insufficient runs" in report.summary()

    def test_repair_candidates_for_multi_run_failures(self, detector, corpus):
        repairable = [t for t in corpus.failed_traces()
                      if detector.repair_candidates(t.run_id) is not None]
        assert len(repairable) == 6
        suggestion = detector.repair_candidates(repairable[0].run_id)
        assert suggestion.donor_run_id != suggestion.failed_run_id
        assert suggestion.artifacts

    def test_repair_rejects_successful_run(self, detector, corpus):
        ok = next(t for t in corpus.traces if not t.failed)
        with pytest.raises(ValueError):
            detector.repair_candidates(ok.run_id)

    def test_repair_none_without_history(self, detector, corpus):
        no_history = next(
            t for t in corpus.failed_traces()
            if len(corpus.by_template(t.template_id)) == 1
        )
        assert detector.repair_candidates(no_history.run_id) is None
