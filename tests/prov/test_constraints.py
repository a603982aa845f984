"""The PROV-CONSTRAINTS rules (``repro.queries.TRACE_RULES``) as SPARQL
over a trace's triples.

Two kinds of cases: small hand-written traces, one per situation a rule
must decide, and mutations of a real corpus trace's shipped text — one
edit each (a timestamp moved, a second ``prov:wasGeneratedBy``, an IRI
typed both Entity and Activity, ...) — that must be reported by exactly
the rule the edit breaks.
"""

import datetime as dt

import pytest

from repro.prov.emit import activity, qualified_nodes, typed, used, was_generated_by
from repro.queries import TRACE_RULES, CorpusQueries
from repro.rdf import Dataset, Graph, Namespace, PROV, RDF
from repro.rdf.trig import parse_trig
from repro.rdf.turtle import parse_turtle
from repro.sparql import QueryEngine

EX = Namespace("http://example.org/")
D1, D2, D3, D5 = (dt.datetime(2013, 1, day) for day in (1, 2, 3, 5))


def reported(source):
    """``{rule: severity}`` of every rule that found a violation."""
    return {rule: severity for rule, severity, _ in CorpusQueries(source).trace_violations()}


@pytest.fixture
def g():
    return Graph()


@pytest.fixture
def q():
    return qualified_nodes()


class TestActivityIntervals:
    def test_valid_interval(self, g):
        activity(g, EX.a, start=D1, end=D2)
        assert reported(g) == {}

    def test_inverted_interval_flagged(self, g):
        # The emitter refuses this, so write the triples directly.
        typed(g, EX.a, PROV.Activity)
        g.add((EX.a, PROV.startedAtTime, D2))
        g.add((EX.a, PROV.endedAtTime, D1))
        assert reported(g) == {"start-precedes-end": "error"}


class TestGenerationUniqueness:
    def test_single_generation_ok(self, g):
        g.add((EX.e, PROV.wasGeneratedBy, EX.a1))
        assert "generation-uniqueness" not in reported(g)

    def test_double_generation_flagged(self, g):
        g.add((EX.e, PROV.wasGeneratedBy, EX.a1))
        g.add((EX.e, PROV.wasGeneratedBy, EX.a2))
        assert "generation-uniqueness" in reported(g)

    def test_same_activity_twice_ok(self, g, q):
        was_generated_by(g, q, EX.e, EX.a1)
        was_generated_by(g, q, EX.e, EX.a1, time=D1)
        assert "generation-uniqueness" not in reported(g)

    def test_bundles_are_separate_scopes(self):
        ds = Dataset()
        ds.graph(EX.b1).add((EX.e, PROV.wasGeneratedBy, EX.a1))
        ds.graph(EX.b2).add((EX.e, PROV.wasGeneratedBy, EX.a2))
        assert "generation-uniqueness" not in reported(ds)
        ds.graph(EX.b2).add((EX.e, PROV.wasGeneratedBy, EX.a3))
        assert "generation-uniqueness" in reported(ds)


class TestTemporalOrdering:
    def test_usage_before_generation_flagged(self, g, q):
        was_generated_by(g, q, EX.e, EX.a1, time=D2)
        used(g, q, EX.a2, EX.e, time=D1)
        assert "usage-after-generation" in reported(g)

    def test_usage_after_generation_ok(self, g, q):
        was_generated_by(g, q, EX.e, EX.a1, time=D1)
        used(g, q, EX.a2, EX.e, time=D2)
        assert "usage-after-generation" not in reported(g)

    def test_missing_times_not_flagged(self, g, q):
        was_generated_by(g, q, EX.e, EX.a1)
        used(g, q, EX.a2, EX.e)
        assert "usage-after-generation" not in reported(g)

    def test_generation_outside_activity_flagged(self, g, q):
        activity(g, EX.a, start=D2, end=D3)
        was_generated_by(g, q, EX.e, EX.a, time=D1)
        assert "generation-within-activity" in reported(g)

    def test_generation_after_activity_end_flagged(self, g, q):
        activity(g, EX.a, start=D1, end=D2)
        was_generated_by(g, q, EX.e, EX.a, time=D5)
        assert "generation-within-activity" in reported(g)

    def test_generation_inside_activity_ok(self, g, q):
        activity(g, EX.a, start=D1, end=D3)
        was_generated_by(g, q, EX.e, EX.a, time=D2)
        assert "generation-within-activity" not in reported(g)


class TestReferences:
    def test_dangling_reference_is_warning(self, g, q):
        activity(g, EX.a)
        used(g, q, EX.a, EX.ghost)
        assert reported(g) == {"dangling-reference": "warning"}

    def test_warnings_do_not_invalidate(self, g, q):
        activity(g, EX.a)
        used(g, q, EX.a, EX.ghost)
        violations = CorpusQueries(g).trace_violations()
        assert violations and all(severity == "warning" for _, severity, _ in violations)

    def test_references_check_can_be_skipped(self, g, q):
        """Each rule is its own text: the error rules alone report nothing."""
        activity(g, EX.a)
        used(g, q, EX.a, EX.ghost)
        engine = QueryEngine(g)
        for rule, (severity, text) in TRACE_RULES.items():
            if severity == "error":
                assert len(engine.select(text)) == 0, rule

    def test_bundle_sees_document_elements(self):
        ds = Dataset()
        typed(ds.default, EX.shared, PROV.Entity)
        activity(ds.graph(EX.b), EX.a)
        ds.graph(EX.b).add((EX.a, PROV.used, EX.shared))
        assert "dangling-reference" not in reported(ds)


class TestDisjointness:
    def test_entity_and_activity_conflict_across_bundles(self):
        ds = Dataset()
        typed(ds.default, EX.x, PROV.Entity)
        typed(ds.graph(EX.b), EX.x, PROV.Activity)
        assert reported(ds) == {"entity-activity-disjoint": "error"}

    def test_agent_overlap_allowed(self):
        ds = Dataset()
        typed(ds.default, EX.x, PROV.Agent)
        typed(ds.graph(EX.b), EX.x, PROV.Entity)
        assert "entity-activity-disjoint" not in reported(ds)


class TestCorpusValidity:
    def test_every_corpus_trace_is_valid(self, corpus):
        for trace in corpus.traces:
            assert reported(trace.dataset()) == {}, trace.run_id


# -- mutations of shipped trace text ------------------------------------------------

EARLY = '"2000-01-01T00:00:00"^^xsd:dateTime'


def parse(text, rdf_format):
    return parse_turtle(text) if rdf_format == "turtle" else parse_trig(text)


def edit_block(text, subject, old, new):
    """Replace the first *old* by *new* inside the Turtle block (subject
    line up to its closing `` .``) that starts with *subject*'s text."""
    start = text.index(f"\n{subject} ") + 1
    end = text.index(" .\n", start)
    block = text[start:end]
    assert old in block, (subject, old)
    return text[:start] + block.replace(old, new, 1) + text[end:]


def literal_text(graph, subject, predicate):
    (value,) = graph.objects(subject, predicate)
    return f'"{value.lexical}"^^xsd:dateTime'


@pytest.fixture(scope="module")
def taverna(corpus):
    """A successful Taverna trace: its text and its parsed graph."""
    trace = next(t for t in corpus.by_system("taverna") if not t.failed)
    return trace.text, parse_turtle(trace.text)


def only(text, rdf_format="turtle"):
    return reported(parse(text, rdf_format))


class TestTraceMutations:
    def test_shipped_trace_reports_nothing(self, taverna, corpus):
        text, _ = taverna
        assert only(text) == {}
        wings = next(t for t in corpus.by_system("wings") if t.failed)
        assert only(wings.text, "trig") == {}

    def test_end_moved_before_start(self, corpus):
        # An activity nothing is timed as generated by: a failed process run.
        for trace in corpus.by_system("taverna"):
            graph = parse_turtle(trace.text)
            generators = set(graph.objects(None, PROV.activity))
            candidates = [a for a in graph.subjects(PROV.endedAtTime, None)
                          if a not in generators]
            if candidates:
                break
        target = candidates[0]
        mutated = edit_block(trace.text, target.n3(),
                             literal_text(graph, target, PROV.endedAtTime), EARLY)
        assert only(mutated) == {"start-precedes-end": "error"}

    def test_second_generator_added(self, taverna):
        text, graph = taverna
        entity, _, generator = next(iter(graph.triples(None, PROV.wasGeneratedBy, None)))
        # Another activity, neither part of the generator nor its whole.
        other = next(p for p in graph.subjects(RDF.type, PROV.Activity)
                     if p != generator
                     and not graph.count(p, None, generator)
                     and not graph.count(generator, None, p))
        mutated = edit_block(text, entity.n3(), "prov:wasGeneratedBy ",
                             f"prov:wasGeneratedBy {other.n3()}, ")
        assert only(mutated) == {"generation-uniqueness": "error"}

    def test_usage_moved_before_generation(self, taverna):
        text, graph = taverna
        generated = set(graph.subjects(PROV.qualifiedGeneration, None))
        usage = next(u for u in graph.subjects(RDF.type, PROV.Usage)
                     if graph.value(u, PROV.entity) in generated)
        mutated = edit_block(text, usage.n3(), literal_text(graph, usage, PROV.atTime), EARLY)
        assert only(mutated) == {"usage-after-generation": "error"}

    def test_generation_moved_before_its_activity(self, taverna):
        text, graph = taverna
        generation = next(iter(graph.subjects(RDF.type, PROV.Generation)))
        mutated = edit_block(text, generation.n3(),
                             literal_text(graph, generation, PROV.atTime), EARLY)
        assert only(mutated) == {"generation-within-activity": "error"}

    def test_artifact_typed_activity(self, taverna):
        text, graph = taverna
        artifact = next(iter(graph.subjects(PROV.wasGeneratedBy, None)))
        mutated = edit_block(text, artifact.n3(), " a ", " a prov:Activity, ")
        assert only(mutated) == {"entity-activity-disjoint": "error"}

    def test_use_of_undeclared_artifact(self, corpus):
        trace = next(t for t in corpus.by_system("wings") if not t.failed)
        graph = parse_trig(trace.text)
        process = next(iter(graph.union_graph().subjects(PROV.used, None)))
        mutated = edit_block(trace.text, f"    {process.n3()}", "prov:used ",
                             f"prov:used {EX.ghost.n3()}, ")
        assert only(mutated, "trig") == {"dangling-reference": "warning"}
