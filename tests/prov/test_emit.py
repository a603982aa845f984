"""The PROV-O patterns the exporters write (``repro.prov.emit``), and the
bundle layout of a Wings trace (the account as a named graph)."""

import datetime as dt

import pytest

from repro.prov.emit import (
    activity,
    qualified_nodes,
    typed,
    used,
    was_associated_with,
    was_derived_from,
    was_generated_by,
)
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, PROV, RDF
from repro.rdf.terms import BlankNode
from repro.wings import OPMW_EXPORT_NS

EX = Namespace("http://example.org/")
T0 = dt.datetime(2013, 1, 1)


@pytest.fixture
def g():
    return Graph()


@pytest.fixture
def q():
    return qualified_nodes()


class TestPatterns:
    def test_element_typing(self, g):
        typed(g, EX.e, PROV.Entity)
        activity(g, EX.a)
        typed(g, EX.g, PROV.Agent, PROV.SoftwareAgent)
        assert (EX.e, RDF.type, PROV.Entity) in g
        assert (EX.a, RDF.type, PROV.Activity) in g
        assert (EX.g, RDF.type, PROV.SoftwareAgent) in g

    def test_activity_timestamps(self, g):
        activity(g, EX.a, start=T0)
        assert list(g.triples(EX.a, PROV.startedAtTime, None))
        assert not list(g.triples(EX.a, PROV.endedAtTime, None))

    def test_activity_end_before_start_rejected(self, g):
        with pytest.raises(ValueError):
            activity(g, EX.a, start=T0, end=T0 - dt.timedelta(seconds=1))
        assert len(g) == 0

    def test_plain_usage_no_qualified_node(self, g, q):
        used(g, q, EX.a, EX.e)
        assert list(g) and not list(g.triples(None, PROV.qualifiedUsage, None))
        assert next(q) == BlankNode("q1")  # no node was drawn

    def test_timed_usage_emits_qualified_pattern(self, g, q):
        used(g, q, EX.a, EX.e, time=T0)
        node = BlankNode("q1")
        assert (EX.a, PROV.used, EX.e) in g
        assert (EX.a, PROV.qualifiedUsage, node) in g
        assert (node, RDF.type, PROV.Usage) in g
        assert (node, PROV.entity, EX.e) in g
        assert list(g.triples(node, PROV.atTime, None))

    def test_role_qualifies_generation(self, g, q):
        was_generated_by(g, q, EX.e, EX.a, role=EX.output)
        node = BlankNode("q1")
        assert (EX.e, PROV.qualifiedGeneration, node) in g
        assert (node, PROV.activity, EX.a) in g
        assert (node, PROV.hadRole, EX.output) in g
        assert not list(g.triples(node, PROV.atTime, None))

    def test_one_node_per_relation_call(self, g, q):
        """A second timed use of the same artifact gets its own node."""
        used(g, q, EX.a, EX.e, time=T0)
        used(g, q, EX.a, EX.e, time=T0 + dt.timedelta(seconds=5))
        was_associated_with(g, q, EX.a, EX.engine, plan=EX.plan)
        assert [t.object for t in g.triples(EX.a, PROV.qualifiedUsage, None)] == [
            BlankNode("q1"), BlankNode("q2")]
        assert (EX.a, PROV.qualifiedAssociation, BlankNode("q3")) in g
        assert len(list(g.triples(EX.a, PROV.used, EX.e))) == 1

    def test_association_with_plan_emits_hadplan(self, g, q):
        was_associated_with(g, q, EX.a, EX.agent, plan=EX.plan)
        node = BlankNode("q1")
        assert (EX.a, PROV.wasAssociatedWith, EX.agent) in g
        assert (EX.a, PROV.qualifiedAssociation, node) in g
        assert (node, RDF.type, PROV.Association) in g
        assert (node, PROV.agent, EX.agent) in g
        assert (node, PROV.hadPlan, EX.plan) in g
        # The plan is referenced, not typed: prov:Plan is only inferable.
        assert (EX.plan, RDF.type, PROV.Plan) not in g

    def test_association_without_plan_is_direct_only(self, g, q):
        was_associated_with(g, q, EX.a, EX.agent)
        assert list(g.triples(None, PROV.wasAssociatedWith, None))
        assert not list(g.triples(None, PROV.qualifiedAssociation, None))

    def test_derivation_subtype_emits_subproperty_only(self, g):
        was_derived_from(g, EX.b, EX.a, subtype="primary_source")
        was_derived_from(g, EX.c, EX.b, subtype="revision")
        assert set(g) == {(EX.b, PROV.hadPrimarySource, EX.a),
                          (EX.c, PROV.wasRevisionOf, EX.b)}

    def test_unknown_derivation_subtype(self, g):
        with pytest.raises(KeyError):
            was_derived_from(g, EX.c, EX.a, subtype="paraphrase")
        assert len(g) == 0


@pytest.fixture(scope="module")
def wings_trace(corpus):
    """A Wings trace's dataset and its account IRI."""
    trace = next(t for t in corpus.by_system("wings") if not t.failed)
    return trace, OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{trace.run_id}")


class TestBundles:
    def test_bundle_becomes_named_graph(self, wings_trace):
        trace, account = wings_trace
        ds = trace.dataset()
        assert ds.graph_names() == [account]
        assert list(ds.graph(account).subjects(RDF.type, PROV.Activity))
        assert not list(ds.default.subjects(RDF.type, PROV.Activity))

    def test_bundle_typing_in_default_graph(self, wings_trace):
        trace, account = wings_trace
        ds = trace.dataset()
        assert (account, RDF.type, PROV.Bundle) in ds.default
        assert (account, RDF.type, PROV.Entity) in ds.default
        assert not list(ds.graph(account).triples(account, RDF.type, None))

    def test_bundle_merged_and_typed(self, wings_trace):
        trace, account = wings_trace
        ds, merged = trace.dataset(), trace.graph()
        assert (account, RDF.type, PROV.Bundle) in merged
        assert set(merged) == set(ds.default) | set(ds.graph(account))
        assert len(merged) == trace.triples
