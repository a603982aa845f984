"""Tests for Taverna-style implicit iteration over list inputs."""

import datetime as dt

import pytest

from repro.workflow import (
    DataflowExecutor,
    FaultPlan,
    Port,
    Processor,
    ServiceRegistry,
    SimulatedClock,
    WorkflowTemplate,
)


def iterating_template():
    """fetch yields a depth-1 list; 'per_item' declares a depth-0 input, so
    the engine must iterate it implicitly; 'collate' takes the whole list."""
    t = WorkflowTemplate("it-wf", "iterating", "taverna")
    t.add_input("accession")
    t.add_output("summary")
    t.add_processor(Processor(
        "fetch", operation="fetch_dataset",
        inputs=[Port("accession")], outputs=[Port("sequences", depth=1)],
        config={"records": 4},
    ))
    t.add_processor(Processor(
        "per_item", operation="transform",
        inputs=[Port("in", depth=0)], outputs=[Port("out")],
        config={"label": "per_item"},
    ))
    t.add_processor(Processor(
        "collate", operation="aggregate",
        inputs=[Port("in", depth=1)], outputs=[Port("out")],
    ))
    t.connect(":accession", "fetch:accession")
    t.connect("fetch:sequences", "per_item:in")
    t.connect("per_item:out", "collate:in")
    t.connect("collate:out", ":summary")
    return t.freeze()


def run_it(fault_plan=None):
    clock = SimulatedClock(dt.datetime(2012, 6, 1, 9))
    executor = DataflowExecutor(ServiceRegistry(), clock)
    return executor.execute(iterating_template(), {"accession": "P1"},
                            run_id="it-run", fault_plan=fault_plan)


class TestImplicitIteration:
    def test_iterates_once_per_element(self):
        run = run_it()
        assert run.succeeded
        per_item = run.step("per_item")
        assert per_item.iterated
        assert len(per_item.iterations) == 4

    def test_collected_output_is_list(self):
        run = run_it()
        per_item = run.step("per_item")
        assert per_item.outputs["out"].is_list
        assert len(per_item.outputs["out"].value) == 4

    def test_iteration_outputs_feed_collection(self):
        run = run_it()
        per_item = run.step("per_item")
        element_outputs = [it.outputs["out"].value for it in per_item.iterations]
        assert per_item.outputs["out"].value == element_outputs

    def test_downstream_receives_collected_list(self):
        run = run_it()
        collate = run.step("collate")
        assert collate.inputs["in"].checksum == run.step("per_item").outputs["out"].checksum
        assert run.outputs["summary"].value["count"] == 4

    def test_iteration_names_and_times(self):
        run = run_it()
        per_item = run.step("per_item")
        names = [it.name for it in per_item.iterations]
        assert names == [f"per_item_it{i}" for i in range(4)]
        for earlier, later in zip(per_item.iterations, per_item.iterations[1:]):
            assert earlier.ended <= later.started

    def test_matching_depth_does_not_iterate(self):
        run = run_it()
        assert not run.step("collate").iterated
        assert not run.step("fetch").iterated

    def test_deterministic(self):
        a, b = run_it(), run_it()
        assert a.outputs["summary"].checksum == b.outputs["summary"].checksum

    def test_fault_fails_first_iteration(self):
        run = run_it(FaultPlan.single("per_item", "illegal-input-value"))
        assert run.failed and run.failed_step == "per_item"
        per_item = run.step("per_item")
        assert len(per_item.iterations) == 1
        assert per_item.iterations[0].failed
        assert run.unexecuted_steps() == ["collate"]


class TestIterationProvenance:
    def test_iterations_exported_as_process_runs(self, registry, clock):
        from repro.rdf import RDF
        from repro.taverna import TavernaEngine, export_run
        from repro.taverna.provexport import TAVERNAPROV
        from repro.vocab import wfprov

        engine = TavernaEngine(registry, clock)
        run = engine.run(iterating_template(), {"accession": "P1"}, run_id="it-prov")
        graph = export_run(run)
        iteration_marks = list(graph.triples(None, TAVERNAPROV.iteration, None))
        assert len(iteration_marks) == 4
        # each iteration is a timestamped wfprov:ProcessRun of the run
        for t in iteration_marks:
            assert (t.subject, RDF.type, wfprov.ProcessRun) in graph
            assert graph.value(subject=t.subject,
                               predicate=graph.namespaces.expand("prov:startedAtTime")) is not None

    def test_trace_remains_constraint_valid(self, registry, clock):
        from repro.queries import CorpusQueries
        from repro.taverna import TavernaEngine, export_run

        engine = TavernaEngine(registry, clock)
        run = engine.run(iterating_template(), {"accession": "P1"}, run_id="it-valid")
        violations = CorpusQueries(export_run(run)).trace_violations()
        assert not [v for v in violations if v[1] == "error"], violations
