"""Tests for the Wings system: catalogs, semantic validation, OPMW export."""

import datetime as dt

import pytest

from repro.rdf import PROV, RDF
from repro.vocab import opmw
from repro.wings import (
    Component,
    ComponentCatalog,
    DataCatalog,
    TypeHierarchy,
    WingsEngine,
    export_run,
    export_template,
    validate_against_catalog,
)
from repro.workflow import FaultPlan, Port, Processor, WorkflowTemplate
from repro.workflow.errors import WorkflowDefinitionError


@pytest.fixture
def types():
    th = TypeHierarchy()
    th.add("Table")
    th.add("CsvTable", parent="Table")
    th.add("Model")
    th.add("Report")
    return th


@pytest.fixture
def components(types):
    catalog = ComponentCatalog(types)
    catalog.register(Component("Train", operation="train_model",
                               input_types={"features": "Table"},
                               output_types={"model": "Model"}))
    catalog.register(Component("Score", operation="evaluate",
                               input_types={"model": "Model", "testset": "Table"},
                               output_types={"score": "Report"}))
    return catalog


@pytest.fixture
def template():
    t = WorkflowTemplate("ML-1", "ml_one", "wings", domain="machine-learning")
    t.add_input("features", data_type="Table")
    t.add_input("testset", data_type="Table")
    t.add_output("score", data_type="Report")
    t.add_processor(Processor("train", operation="Train",
                              inputs=[Port("features", "Table")],
                              outputs=[Port("model", "Model")]))
    t.add_processor(Processor("eval", operation="Score",
                              inputs=[Port("model", "Model"), Port("testset", "Table")],
                              outputs=[Port("score", "Report")]))
    t.connect(":features", "train:features")
    t.connect("train:model", "eval:model")
    t.connect(":testset", "eval:testset")
    t.connect("eval:score", ":score")
    return t.freeze()


@pytest.fixture
def engine(registry, clock, components, types):
    data = DataCatalog(types)
    data.add("train-data", "CsvTable", ["a", "b", "c"])
    data.add("test-data", "Table", ["d", "e"])
    return WingsEngine(registry, clock, components, data)


class TestTypeHierarchy:
    def test_subtype_reflexive_and_transitive(self, types):
        assert types.is_subtype("Table", "Table")
        assert types.is_subtype("CsvTable", "Table")
        assert types.is_subtype("CsvTable", "any")
        assert not types.is_subtype("Table", "CsvTable")

    def test_unknown_type_not_subtype_of_any(self, types):
        assert not types.is_subtype("Ghost", "any")

    def test_duplicate_type_rejected(self, types):
        with pytest.raises(ValueError):
            types.add("Table")

    def test_unknown_parent_rejected(self, types):
        with pytest.raises(ValueError):
            types.add("X", parent="Ghost")


class TestComponentCatalog:
    def test_register_validates_types(self, types):
        catalog = ComponentCatalog(types)
        with pytest.raises(ValueError):
            catalog.register(Component("Bad", operation="transform",
                                       input_types={"in": "Ghost"}))

    def test_duplicate_component_rejected(self, components):
        with pytest.raises(ValueError):
            components.register(Component("Train", operation="transform"))

    def test_check_binding_subtype_ok(self, components):
        components.check_binding("Train", "features", "CsvTable", "input")

    def test_check_binding_mismatch(self, components):
        with pytest.raises(WorkflowDefinitionError):
            components.check_binding("Train", "features", "Report", "input")

    def test_check_binding_unknown_port(self, components):
        with pytest.raises(WorkflowDefinitionError):
            components.check_binding("Train", "ghost", "Table", "input")


class TestDataCatalog:
    def test_default_location(self, types):
        data = DataCatalog(types)
        ds = data.add("d1", "Table", [1])
        assert ds.location.startswith("/export/wings/workspace/")

    def test_of_type_subtype_aware(self, types):
        data = DataCatalog(types)
        data.add("d1", "CsvTable", [1])
        data.add("d2", "Model", "m")
        assert [d.dataset_id for d in data.of_type("Table")] == ["d1"]

    def test_duplicate_rejected(self, types):
        data = DataCatalog(types)
        data.add("d1", "Table", [1])
        with pytest.raises(ValueError):
            data.add("d1", "Table", [2])


class TestSemanticValidation:
    def test_valid_template_passes(self, template, components):
        validate_against_catalog(template, components)

    def test_unknown_component_rejected(self, components):
        t = WorkflowTemplate("B", "b", "wings")
        t.add_processor(Processor("x", operation="Ghost", outputs=[Port("out")]))
        with pytest.raises(WorkflowDefinitionError):
            validate_against_catalog(t, components)

    def test_type_mismatch_rejected_before_execution(self, engine, components):
        t = WorkflowTemplate("B", "b", "wings")
        t.add_input("x", data_type="Report")
        t.add_output("y", data_type="Model")
        t.add_processor(Processor("train", operation="Train",
                                  inputs=[Port("features", "Report")],
                                  outputs=[Port("model", "Model")]))
        t.connect(":x", "train:features")
        t.connect("train:model", ":y")
        t.freeze()
        with pytest.raises(WorkflowDefinitionError):
            engine.run(t, {"x": "v"}, run_id="A-1")


class TestEngine:
    def test_run_with_catalog_datasets(self, engine, template):
        run = engine.run(template, {"features": "train-data", "testset": "test-data"},
                         run_id="A-1", user="dgarijo")
        assert run.result.succeeded
        # dataset ids resolved to catalog values
        assert run.result.inputs["features"].value == ["a", "b", "c"]

    def test_run_with_raw_values(self, engine, template):
        run = engine.run(template, {"features": ["x", "y"], "testset": ["z"]}, run_id="A-2")
        assert run.result.succeeded

    def test_rejects_taverna_template(self, engine):
        from tests.conftest import make_linear_template

        with pytest.raises(ValueError):
            engine.run(make_linear_template(), {"accession": "P1"}, run_id="A-3")

    def test_account_iri(self, engine, template):
        run = engine.run(template, {"features": ["x", "y"], "testset": ["z"]}, run_id="A-4")
        assert run.account_iri.value.endswith("WorkflowExecutionAccount/A-4")


class TestProvExportConventions:
    """Each test checks one cell of the paper's Tables 2/3 for Wings."""

    @pytest.fixture
    def export(self, engine, template):
        run = engine.run(template, {"features": "train-data", "testset": "test-data"},
                         run_id="A-9", user="dgarijo")
        dataset = export_run(run)
        export_template(template, dataset)
        return dataset

    @pytest.fixture
    def graph(self, export):
        return export.union_graph()

    def test_no_activity_timestamps(self, graph):
        assert not list(graph.triples(None, PROV.startedAtTime, None))
        assert not list(graph.triples(None, PROV.endedAtTime, None))

    def test_opmw_overall_times_instead(self, graph):
        assert list(graph.triples(None, opmw.overallStartTime, None))
        assert list(graph.triples(None, opmw.overallEndTime, None))

    def test_attribution_present(self, graph):
        assert list(graph.triples(None, PROV.wasAttributedTo, None))

    def test_association_present(self, graph):
        assert list(graph.triples(None, PROV.wasAssociatedWith, None))

    def test_atlocation_present(self, graph):
        locations = list(graph.triples(None, PROV.atLocation, None))
        assert locations
        assert all(t.object.lexical.startswith("/export/wings/") for t in locations)

    def test_had_primary_source_not_derived_from(self, graph):
        assert list(graph.triples(None, PROV.hadPrimarySource, None))
        assert not list(graph.triples(None, PROV.wasDerivedFrom, None))

    def test_direct_influence_assertions(self, graph):
        assert list(graph.triples(None, PROV.wasInfluencedBy, None))

    def test_no_informed_by_no_delegation(self, graph):
        assert not list(graph.triples(None, PROV.wasInformedBy, None))
        assert not list(graph.triples(None, PROV.actedOnBehalfOf, None))

    def test_plan_class_asserted(self, graph):
        assert list(graph.triples(None, RDF.type, PROV.Plan))

    def test_bundle_and_named_graph(self, export):
        assert len(export.graph_names()) == 1
        account = export.graph_names()[0]
        assert (account, RDF.type, PROV.Bundle) in export.default
        assert (account, RDF.type, PROV.Entity) in export.default
        # The account's statements live in its named graph, not the default.
        processes = set(export.graph(account).subjects(RDF.type, opmw.WorkflowExecutionProcess))
        assert processes
        assert not set(export.default.subjects(RDF.type, opmw.WorkflowExecutionProcess))

    def test_opmw_typing(self, graph):
        for cls in (opmw.WorkflowExecutionAccount, opmw.WorkflowExecutionProcess,
                    opmw.WorkflowExecutionArtifact, opmw.WorkflowTemplate):
            assert list(graph.triples(None, RDF.type, cls)), cls

    def test_executable_components_reference_semantic_names(self, graph):
        components = {t.object.value.rsplit("/", 1)[1]
                      for t in graph.triples(None, opmw.hasExecutableComponent, None)}
        assert "Train" in components and "Score" in components

    def test_failed_run_status(self, engine, template):
        run = engine.run(template, {"features": ["x", "y"], "testset": ["z"]}, run_id="A-10",
                         fault_plan=FaultPlan.single("train", "service-timeout"))
        graph = export_run(run).union_graph()
        statuses = {t.object.lexical for t in graph.triples(None, opmw.hasStatus, None)}
        assert "FAILURE" in statuses
