"""Tests for the Taverna system: engine, PROV export conventions, t2flow."""

import datetime as dt

import pytest

from repro.rdf import PROV, RDF
from repro.rdf.terms import IRI
from repro.taverna import (
    TAVERNA_RUN_NS,
    TAVERNAPROV,
    TavernaEngine,
    export_run,
    export_template_description,
    from_t2flow,
    to_t2flow,
)
from repro.vocab import wfdesc, wfprov
from repro.workflow import FaultPlan
from repro.workflow.errors import WorkflowDefinitionError
from tests.conftest import make_linear_template


@pytest.fixture
def engine(registry, clock):
    return TavernaEngine(registry, clock)


@pytest.fixture
def run(engine, linear_template):
    return engine.run(linear_template, {"accession": "P1"}, run_id="r1", user="jzhao")


class TestEngine:
    def test_run_iris(self, run):
        assert run.run_iri == TAVERNA_RUN_NS.term("r1/")
        assert run.process_iri("fetch").value.endswith("/process/fetch/")

    def test_rejects_wings_template(self, engine):
        wings_template = make_linear_template(system="wings", template_id="w1")
        with pytest.raises(ValueError):
            engine.run(wings_template, {"accession": "P1"}, run_id="r1")

    def test_failure_captured_not_raised(self, engine, linear_template):
        run = engine.run(
            linear_template, {"accession": "P1"}, run_id="r2",
            fault_plan=FaultPlan.single("fetch", "resource-unavailable"),
        )
        assert run.failed


class TestProvExportConventions:
    """Each test checks one cell of the paper's Tables 2/3 for Taverna."""

    @pytest.fixture
    def graph(self, run, linear_template):
        graph = export_run(run)
        export_template_description(linear_template, graph)
        return graph

    def test_activities_and_timestamps(self, graph):
        assert list(graph.triples(None, RDF.type, PROV.Activity))
        assert list(graph.triples(None, PROV.startedAtTime, None))
        assert list(graph.triples(None, PROV.endedAtTime, None))

    def test_engine_is_software_agent(self, graph):
        assert list(graph.triples(None, RDF.type, PROV.SoftwareAgent))
        assert list(graph.triples(None, RDF.type, wfprov.WorkflowEngine))

    def test_used_and_generated(self, graph):
        assert list(graph.triples(None, PROV.used, None))
        assert list(graph.triples(None, PROV.wasGeneratedBy, None))

    def test_association_with_hadplan(self, graph):
        assert list(graph.triples(None, PROV.wasAssociatedWith, None))
        # One qualified association, the run's: its plan is the wfdesc workflow.
        (link,) = graph.triples(None, PROV.qualifiedAssociation, None)
        assert (link.subject, RDF.type, wfprov.WorkflowRun) in graph
        (plan,) = graph.objects(link.object, PROV.hadPlan)
        assert (plan, RDF.type, wfdesc.Workflow) in graph

    def test_no_plan_class_asserted(self, graph):
        assert not list(graph.triples(None, RDF.type, PROV.Plan))

    def test_no_attribution(self, graph):
        assert not list(graph.triples(None, PROV.wasAttributedTo, None))

    def test_no_delegation_no_derivation_no_influence(self, graph):
        assert not list(graph.triples(None, PROV.actedOnBehalfOf, None))
        assert not list(graph.triples(None, PROV.wasDerivedFrom, None))
        assert not list(graph.triples(None, PROV.wasInfluencedBy, None))

    def test_no_bundle_no_atlocation(self, graph):
        assert not list(graph.triples(None, RDF.type, PROV.Bundle))
        assert not list(graph.triples(None, PROV.atLocation, None))

    def test_wfprov_typing(self, graph):
        assert list(graph.triples(None, RDF.type, wfprov.WorkflowRun))
        assert list(graph.triples(None, RDF.type, wfprov.ProcessRun))
        assert list(graph.triples(None, RDF.type, wfprov.Artifact))

    def test_wfdesc_description_present(self, graph):
        assert list(graph.triples(None, RDF.type, wfdesc.Workflow))
        assert list(graph.triples(None, RDF.type, wfdesc.Process))
        assert list(graph.triples(None, wfdesc.hasDataLink, None))

    def test_run_status_annotation(self, graph):
        statuses = [t.object.lexical for t in graph.triples(None, TAVERNAPROV.runStatus, None)]
        assert statuses == ["completed"]


class TestFailedRunExport:
    def test_truncated_trace(self, engine, linear_template):
        run = engine.run(
            linear_template, {"accession": "P1"}, run_id="rf",
            fault_plan=FaultPlan.single("shape", "illegal-input-value"),
        )
        graph = export_run(run)
        process_runs = list(graph.triples(None, RDF.type, wfprov.ProcessRun))
        assert len(process_runs) == 2  # fetch + shape, publish never ran
        failed = list(graph.triples(None, TAVERNAPROV.processStatus, None))
        assert len(failed) == 1 and failed[0].object.lexical == "failed"
        errors = [t.object.lexical for t in graph.triples(None, TAVERNAPROV.errorMessage, None)]
        assert any("illegal-input-value" in e for e in errors)


class TestNestedExport:
    def test_was_informed_by_emitted(self, registry, clock):
        from repro.corpus.generator import TemplateGenerator
        from repro.corpus.domains import DOMAINS

        gen = TemplateGenerator()
        nested_template = gen.taverna_template(DOMAINS[0], 4)  # index 4 = nested flavor
        engine = TavernaEngine(registry, clock)
        reg_gen = gen.build_registry()
        engine2 = TavernaEngine(reg_gen, clock)
        run = engine2.run(nested_template, gen.inputs_for(nested_template), run_id="rn")
        graph = export_run(run)
        informed = list(graph.triples(None, PROV.wasInformedBy, None))
        assert informed, "nested workflow must be connected via prov:wasInformedBy"
        workflow_runs = list(graph.triples(None, RDF.type, wfprov.WorkflowRun))
        assert len(workflow_runs) == 2  # top + nested


class TestT2flow:
    def test_roundtrip_simple(self, linear_template):
        text = to_t2flow(linear_template)
        parsed = from_t2flow(text)
        assert parsed.template_id == linear_template.template_id
        assert set(parsed.processors) == set(linear_template.processors)
        assert parsed.size() == linear_template.size()
        assert parsed.processors["fetch"].service == "remote-svc"
        assert parsed.processors["shape"].config == {"label": "shape"}

    def test_roundtrip_ports_and_depths(self, linear_template):
        parsed = from_t2flow(to_t2flow(linear_template))
        assert parsed.processors["fetch"].outputs[0].depth == 1

    def test_roundtrip_parameters(self):
        t = make_linear_template(template_id="wp")
        t._frozen = False
        t.add_parameter("k", "5", data_type="string")
        parsed = from_t2flow(to_t2flow(t))
        assert parsed.parameters[0].name == "k"

    def test_roundtrip_nested(self):
        from repro.corpus.generator import TemplateGenerator
        from repro.corpus.domains import DOMAINS

        gen = TemplateGenerator()
        nested = gen.taverna_template(DOMAINS[0], 4)
        parsed = from_t2flow(to_t2flow(nested))
        sub = next(p for p in parsed.processors.values() if p.is_subworkflow)
        assert sub.subworkflow.size()[0] >= 1

    def test_malformed_xml_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            from_t2flow("<not-closed")

    def test_wrong_root_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            from_t2flow("<other/>")

    def test_missing_id_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            from_t2flow('<workflow name="x"><dataflow role="top"/></workflow>')
