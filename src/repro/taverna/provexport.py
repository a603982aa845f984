"""Taverna-PROV export: runs → PROV-O + wfprov triples in one graph.

Reproduces the term-usage conventions the paper documents for Taverna
(Tables 2 and 3):

* activities (workflow run + process runs) carry ``prov:startedAtTime`` /
  ``prov:endedAtTime`` — Taverna is the only system recording them;
* the run is ``prov:wasAssociatedWith`` the Taverna engine, with a
  *qualified* association whose ``prov:hadPlan`` points at the wfdesc
  workflow description — but the plan is **not** typed ``prov:Plan``
  ("prov:hadPlan is used in Taverna, instead of prov:Plan"), so the Plan
  class is only inferable (the Table 3 star);
* no ``prov:wasAttributedTo`` ("no direct attribution is recorded in
  Taverna provenance traces"), no ``prov:actedOnBehalfOf``, no
  ``prov:wasDerivedFrom``, no ``prov:wasInfluencedBy`` (only its
  subproperties — the other Table 3 star);
* nested sub-workflow runs are connected with ``prov:wasInformedBy``;
* runs, process runs, and artifacts are additionally typed with wfprov
  terms and linked to their wfdesc description (``describedByWorkflow`` /
  ``describedByProcess`` / ``describedByParameter``).

Failed runs export exactly the steps that executed: the trace is
truncated at the failing process run, whose status is recorded with
a tavernaprov-style error note.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..prov.emit import (
    activity,
    qualified_nodes,
    typed,
    used,
    was_associated_with,
    was_generated_by,
)
from ..rdf.graph import Graph
from ..rdf.namespace import DCTERMS, PROV, Namespace, NamespaceManager, RDF
from ..rdf.terms import IRI, Literal
from ..vocab import wfdesc, wfprov
from ..workflow.data import make_item
from ..workflow.dataflow import StepRun
from ..workflow.model import WorkflowTemplate, WORKFLOW_SOURCE
from .engine import TavernaRun, TAVERNA_RUN_NS, TAVERNA_WF_NS

__all__ = ["export_run", "export_template_description", "TAVERNAPROV"]

#: Taverna's own extension vocabulary (error/content annotations).
TAVERNAPROV = Namespace("http://ns.taverna.org.uk/2012/tavernaprov/")


def _bind_namespaces(nsm: NamespaceManager) -> None:
    nsm.bind("trun", TAVERNA_RUN_NS)
    nsm.bind("twf", TAVERNA_WF_NS)
    nsm.bind("tavernaprov", TAVERNAPROV)


class _Export:
    """One run's export state: its graph, its qualified-node counter and
    the artifacts already written (an artifact is declared once, under the
    top-level run's IRI, nested runs included)."""

    def __init__(self, graph: Graph, run: TavernaRun):
        self.graph = graph
        self.run = run
        self.qnodes = qualified_nodes()
        self.artifacts: Dict[str, IRI] = {}

    def artifact(self, item) -> IRI:
        iri = self.run.artifact_iri(item.checksum)
        if item.checksum not in self.artifacts:
            graph = self.graph
            typed(graph, iri, PROV.Entity, wfprov.Artifact)
            graph.add((iri, PROV.value, Literal(item.preview())))
            graph.add((iri, TAVERNAPROV.byteCount, item.size_bytes))
            graph.add((iri, TAVERNAPROV.sha1, Literal(item.checksum)))
            self.artifacts[item.checksum] = iri
            if item.is_list:
                self._collection(iri, item)
        return self.artifacts[item.checksum]

    def _collection(self, collection: IRI, item) -> None:
        """List values are Taverna collections: a prov:Collection whose
        elements are member artifacts (taverna-prov's representation of the
        engine's list datatype)."""
        graph = self.graph
        graph.add((collection, RDF.type, PROV.Collection))
        for element_value in item.value:
            element = make_item(element_value)
            member = self.run.artifact_iri(element.checksum)
            if element.checksum not in self.artifacts:
                typed(graph, member, PROV.Entity, wfprov.Artifact)
                graph.add((member, PROV.value, Literal(element.preview())))
                graph.add((member, TAVERNAPROV.sha1, Literal(element.checksum)))
                self.artifacts[element.checksum] = member
            graph.add((collection, PROV.hadMember, member))


def export_run(run: TavernaRun, graph: Optional[Graph] = None) -> Graph:
    """Export one Taverna run as PROV-O + wfprov triples into *graph*."""
    if graph is None:
        graph = Graph()
    _bind_namespaces(graph.namespaces)
    export = _Export(graph, run)
    result = run.result

    typed(graph, run.engine_iri, PROV.Agent, PROV.SoftwareAgent, wfprov.WorkflowEngine)

    workflow_run = activity(graph, run.run_iri, wfprov.WorkflowRun,
                            start=result.started, end=result.ended)
    graph.add((workflow_run, wfprov.describedByWorkflow, run.workflow_iri))
    graph.add((workflow_run, DCTERMS.identifier, Literal(result.run_id)))
    if result.failed:
        graph.add((workflow_run, TAVERNAPROV.runStatus, Literal("failed")))
        graph.add((workflow_run, TAVERNAPROV.errorMessage,
                   Literal(f"{result.failed_step}: {result.failure_cause}")))
    else:
        graph.add((workflow_run, TAVERNAPROV.runStatus, Literal("completed")))

    # Association with the engine, qualified by the plan (the workflow).
    was_associated_with(graph, export.qnodes, workflow_run, run.engine_iri,
                        plan=run.workflow_iri)

    # Workflow-level inputs are used by the workflow run itself.
    for name, item in result.inputs.items():
        iri = export.artifact(item)
        used(graph, export.qnodes, workflow_run, iri, time=result.started)
        graph.add((iri, wfprov.describedByParameter,
                   _parameter_iri(run.workflow_iri, WORKFLOW_SOURCE, name)))

    for step_run in result.step_runs:
        _export_step(export, run, step_run)

    # Workflow-level outputs are generated by the workflow run.
    for name, item in result.outputs.items():
        iri = export.artifact(item)
        was_generated_by(graph, export.qnodes, iri, workflow_run, time=result.ended)
        graph.add((iri, wfprov.describedByParameter,
                   _parameter_iri(run.workflow_iri, WORKFLOW_SOURCE, name)))
    return graph


def _process_run(export: _Export, run: TavernaRun, iri: IRI, step_name: str,
                 step_run: StepRun) -> IRI:
    """A wfprov:ProcessRun of *run*, associated with the engine."""
    graph = export.graph
    activity(graph, iri, wfprov.ProcessRun, start=step_run.started, end=step_run.ended)
    graph.add((iri, wfprov.wasPartOfWorkflowRun, run.run_iri))
    graph.add((iri, wfprov.describedByProcess, _process_iri(run.workflow_iri, step_name)))
    if step_run.failed:
        graph.add((iri, TAVERNAPROV.processStatus, Literal("failed")))
        graph.add((iri, TAVERNAPROV.errorMessage, Literal(step_run.failure_cause or "")))
    was_associated_with(graph, export.qnodes, iri, run.engine_iri)
    for item in step_run.inputs.values():
        used(graph, export.qnodes, iri, export.artifact(item), time=step_run.started)
    return iri


def _export_step(export: _Export, run: TavernaRun, step_run: StepRun) -> None:
    process = _process_run(export, run, run.process_iri(step_run.name), step_run.name,
                           step_run)
    for index, iteration in enumerate(step_run.iterations):
        _export_iteration(export, run, step_run, iteration, index)
    if step_run.child_run is None:
        for item in step_run.outputs.values():
            was_generated_by(export.graph, export.qnodes, export.artifact(item),
                             process, time=step_run.ended)
    else:
        # A sub-workflow step's outputs are generated inside the nested
        # run (asserting them here too would violate generation-uniqueness).
        _export_nested(export, run, step_run)


def _export_iteration(export: _Export, run: TavernaRun, step_run: StepRun,
                      iteration: StepRun, index: int) -> None:
    """One implicit-iteration element invocation, as its own process run
    (taverna-prov publishes each iteration separately, under
    ``.../process/<name>/iteration/<n>/``)."""
    iri = IRI(f"{run.run_iri.value}process/{step_run.name}/iteration/{index}/")
    export.graph.add((iri, TAVERNAPROV.iteration, index))
    _process_run(export, run, iri, step_run.name, iteration)
    for item in iteration.outputs.values():
        was_generated_by(export.graph, export.qnodes, export.artifact(item), iri,
                         time=iteration.ended)


def _export_nested(export: _Export, run: TavernaRun, step_run: StepRun) -> None:
    """Nested workflow: its run is an activity informed by the parent run.

    This is the paper's only use of prov:wasInformedBy ("used to express
    the connection between sub-workflows").
    """
    graph = export.graph
    child = step_run.child_run
    nested_iri = IRI(f"{run.run_iri.value}nested/{step_run.name}/")
    workflow_iri = TAVERNA_WF_NS.term(
        f"{child.template.template_id}/workflow/{child.template.name}/"
    )
    activity(graph, nested_iri, wfprov.WorkflowRun, start=child.started, end=child.ended)
    graph.add((nested_iri, wfprov.wasPartOfWorkflowRun, run.run_iri))
    graph.add((nested_iri, wfprov.describedByWorkflow, workflow_iri))
    graph.add((nested_iri, PROV.wasInformedBy, run.run_iri))
    was_associated_with(graph, export.qnodes, nested_iri, run.engine_iri)
    nested_run = TavernaRun(
        result=child, run_iri=nested_iri, workflow_iri=workflow_iri, user=run.user
    )
    for child_step in child.step_runs:
        _export_step(export, nested_run, child_step)


def _process_iri(workflow_iri: IRI, step_name: str) -> IRI:
    return IRI(f"{workflow_iri.value}processor/{step_name}/")


def _parameter_iri(workflow_iri: IRI, processor: str, port: str) -> IRI:
    scope = f"processor/{processor}/" if processor else ""
    return IRI(f"{workflow_iri.value}{scope}parameter/{port}")


def export_template_description(
    template: WorkflowTemplate, graph: Optional[Graph] = None
) -> Graph:
    """Publish the template's wfdesc description (the prov:hadPlan target)."""
    if graph is None:
        graph = Graph()
    _bind_namespaces(graph.namespaces)
    workflow = typed(
        graph, TAVERNA_WF_NS.term(f"{template.template_id}/workflow/{template.name}/"),
        PROV.Entity, wfdesc.Workflow,
    )
    graph.add((workflow, DCTERMS.title, Literal(template.name)))
    graph.add((workflow, DCTERMS.description, Literal(template.description or template.name)))
    graph.add((workflow, DCTERMS.subject, Literal(template.domain)))

    def parameter(owner: IRI, processor: str, port: str, kind: IRI, link: IRI) -> None:
        iri = typed(graph, _parameter_iri(workflow, processor, port), PROV.Entity, kind)
        graph.add((owner, link, iri))

    for port in template.inputs:
        parameter(workflow, WORKFLOW_SOURCE, port.name, wfdesc.Input, wfdesc.hasInput)
    for port in template.outputs:
        parameter(workflow, WORKFLOW_SOURCE, port.name, wfdesc.Output, wfdesc.hasOutput)
    for processor in template.processors.values():
        process = typed(graph, _process_iri(workflow, processor.name),
                        PROV.Entity, wfdesc.Process)
        graph.add((process, DCTERMS.title, Literal(processor.name)))
        graph.add((workflow, wfdesc.hasSubProcess, process))
        for port in processor.inputs:
            parameter(process, processor.name, port.name, wfdesc.Input, wfdesc.hasInput)
        for port in processor.outputs:
            parameter(process, processor.name, port.name, wfdesc.Output, wfdesc.hasOutput)
    for index, link in enumerate(template.links):
        link_iri = typed(graph, IRI(f"{workflow.value}datalink/{index}"),
                         PROV.Entity, wfdesc.DataLink)
        graph.add((link_iri, wfdesc.hasSource,
                   _parameter_iri(workflow, link.source.processor, link.source.port)))
        graph.add((link_iri, wfdesc.hasSink,
                   _parameter_iri(workflow, link.sink.processor, link.sink.port)))
        graph.add((workflow, wfdesc.hasDataLink, link_iri))
    return graph
