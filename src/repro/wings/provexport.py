"""Wings/OPMW export: runs → OPMW + PROV-O triples, the account a named graph.

Reproduces the Wings-side conventions of the paper's Tables 2 and 3:

* each run is a ``prov:Bundle`` — the OPMW *execution account* — whose
  statements live in a named graph (serialized as TriG);
* execution processes are activities **without** ``prov:startedAtTime`` /
  ``prov:endedAtTime`` ("Activity start and end not recorded in Wings
  provenance traces"); the account instead carries OPMW's own
  ``opmw:overallStartTime`` / ``opmw:overallEndTime``;
* artifacts are ``prov:wasAttributedTo`` the user (Wings is the only
  system with direct attribution) and carry ``prov:atLocation`` workspace
  paths (Wings-only row of Table 3);
* workflow outputs assert ``prov:hadPrimarySource`` against the run's
  input datasets (Wings-only row) — never plain ``prov:wasDerivedFrom``;
* ``prov:wasInfluencedBy`` is asserted **directly** between processes and
  the artifacts that influenced them (unstarred Wings cell of Table 3);
* the workflow template is published as ``opmw:WorkflowTemplate`` typed
  ``prov:Plan`` (Wings asserts the Plan class directly, unlike Taverna),
  and each process/artifact points back at its template element;
* each execution process records its executable component via
  ``opmw:hasExecutableComponent`` — this is what makes exemplar query 6
  ("what services were executed") answerable *only* on Wings traces.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..prov.emit import activity, typed, was_derived_from
from ..rdf.graph import Dataset, Graph
from ..rdf.namespace import DCTERMS, PROV, NamespaceManager
from ..rdf.terms import IRI, Literal
from ..vocab import opmw
from ..workflow.dataflow import StepRun
from ..workflow.model import WorkflowTemplate
from .engine import OPMW_EXPORT_NS, WingsRun

__all__ = ["export_run", "export_template"]


def _bind_namespaces(nsm: NamespaceManager) -> None:
    nsm.bind("opmw-export", OPMW_EXPORT_NS)


def export_run(run: WingsRun, dataset: Optional[Dataset] = None) -> Dataset:
    """Export one Wings run: the account, and its bundle as a named graph."""
    if dataset is None:
        dataset = Dataset()
    _bind_namespaces(dataset.namespaces)
    result = run.result
    default = dataset.default
    user = run.user_iri()

    # The account itself is declared in the default graph: it is the
    # bundle entity others refer to.
    account = typed(default, run.account_iri, PROV.Entity, PROV.Bundle,
                    opmw.WorkflowExecutionAccount)
    default.add((account, opmw.correspondsToTemplate, run.template_iri))
    default.add((account, opmw.overallStartTime, result.started))
    if result.ended is not None:
        default.add((account, opmw.overallEndTime, result.ended))
    default.add((account, opmw.hasStatus, Literal("FAILURE" if result.failed else "SUCCESS")))
    default.add((account, opmw.executedInWorkflowSystem, run.system_iri))
    typed(default, run.system_iri, PROV.Agent, PROV.SoftwareAgent)
    default.add((account, PROV.wasAttributedTo, user))

    bundle = dataset.graph(account)
    typed(bundle, user, PROV.Agent, PROV.Person)

    artifacts: Dict[str, IRI] = {}

    def artifact(item, template_role: Optional[str] = None) -> IRI:
        iri = run.artifact_iri(item.checksum)
        if item.checksum not in artifacts:
            typed(bundle, iri, PROV.Entity, opmw.WorkflowExecutionArtifact)
            bundle.add((iri, PROV.value, Literal(item.preview())))
            bundle.add((iri, opmw.hasSize, item.size_bytes))
            bundle.add((iri, PROV.atLocation, Literal(
                f"/export/wings/workspace/runs/{result.run_id}/{item.checksum[:12]}.dat"
            )))
            bundle.add((iri, PROV.wasAttributedTo, user))
            artifacts[item.checksum] = iri
        if template_role is not None:
            bundle.add((iri, opmw.correspondsToTemplateArtifact,
                        _template_variable_iri(run.template_iri, template_role)))
        return artifacts[item.checksum]

    input_iris = [artifact(item, template_role=name) for name, item in result.inputs.items()]

    for step_run in result.step_runs:
        _export_step(bundle, run, step_run, artifact)

    for name, item in result.outputs.items():
        output_iri = artifact(item, template_role=name)
        # Wings-only: published results point at their primary data sources.
        for input_iri in input_iris:
            if input_iri != output_iri:
                was_derived_from(bundle, output_iri, input_iri, subtype="primary_source")
    return dataset


def _export_step(bundle: Graph, run: WingsRun, step_run: StepRun, artifact) -> None:
    # Deliberately no start/end times: Wings does not record them (Table 2),
    # so no relation here is qualified either.
    process = activity(bundle, run.process_iri(step_run.name), opmw.WorkflowExecutionProcess)
    bundle.add((process, opmw.isStepOfTemplate, run.account_iri))
    bundle.add((process, opmw.correspondsToTemplateProcess,
                _template_process_iri(run.template_iri, step_run.name)))
    # The semantic template names the *component*; the step run only knows
    # the underlying operation it was bound to.
    semantic_step = run.result.template.processors.get(step_run.name)
    component = semantic_step.operation if semantic_step is not None else step_run.operation
    bundle.add((process, opmw.hasExecutableComponent,
                OPMW_EXPORT_NS.term(f"Component/{component}")))
    if step_run.failed:
        bundle.add((process, opmw.hasStatus, Literal("FAILURE")))
        bundle.add((process, DCTERMS.description, Literal(step_run.failure_cause or "")))
    else:
        bundle.add((process, opmw.hasStatus, Literal("SUCCESS")))
    bundle.add((process, PROV.wasAssociatedWith, run.user_iri()))
    for item in step_run.inputs.values():
        input_iri = artifact(item)
        bundle.add((process, PROV.used, input_iri))
        # Direct (unstarred) prov:wasInfluencedBy assertion — Wings idiom.
        bundle.add((process, PROV.wasInfluencedBy, input_iri))
    for item in step_run.outputs.values():
        output_iri = artifact(item)
        bundle.add((output_iri, PROV.wasGeneratedBy, process))
        bundle.add((output_iri, PROV.wasInfluencedBy, process))


def _template_process_iri(template_iri: IRI, step_name: str) -> IRI:
    return IRI(f"{template_iri.value}_process_{step_name}")


def _template_variable_iri(template_iri: IRI, variable: str) -> IRI:
    return IRI(f"{template_iri.value}_variable_{variable}")


def export_template(template: WorkflowTemplate, dataset: Optional[Dataset] = None) -> Dataset:
    """Publish the OPMW template description in the default graph (typed
    prov:Plan — Wings asserts the class directly, unlike Taverna)."""
    if dataset is None:
        dataset = Dataset()
    _bind_namespaces(dataset.namespaces)
    graph = dataset.default
    template_iri = typed(graph, OPMW_EXPORT_NS.term(f"WorkflowTemplate/{template.template_id}"),
                         PROV.Entity, PROV.Plan, opmw.WorkflowTemplate)
    graph.add((template_iri, DCTERMS.title, Literal(template.name)))
    graph.add((template_iri, DCTERMS.description,
               Literal(template.description or template.name)))
    graph.add((template_iri, DCTERMS.subject, Literal(template.domain)))
    for processor in template.processors.values():
        step = typed(graph, _template_process_iri(template_iri, processor.name),
                     PROV.Entity, opmw.WorkflowTemplateProcess)
        graph.add((step, opmw.isStepOfTemplate, template_iri))
        graph.add((step, DCTERMS.title, Literal(processor.name)))
        graph.add((step, opmw.hasExecutableComponent,
                   OPMW_EXPORT_NS.term(f"Component/{processor.operation}")))
    for port in list(template.inputs) + list(template.outputs):
        variable = typed(graph, _template_variable_iri(template_iri, port.name),
                         PROV.Entity, opmw.DataVariable)
        graph.add((variable, opmw.isVariableOfTemplate, template_iri))
        graph.add((variable, DCTERMS.title, Literal(port.name)))
    for parameter in template.parameters:
        variable = typed(graph, _template_variable_iri(template_iri, parameter.name),
                         PROV.Entity, opmw.ParameterVariable)
        graph.add((variable, opmw.isVariableOfTemplate, template_iri))
        graph.add((variable, PROV.value, Literal(str(parameter.value))))
    return dataset
