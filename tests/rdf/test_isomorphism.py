"""Tests for blank-node-aware graph isomorphism."""

import pytest

from repro.rdf import Graph, Namespace, PROV, RDF
from tests.rdf.isomorphism import canonical_hash, isomorphic
from repro.rdf.terms import BlankNode, Literal

EX = Namespace("http://example.org/")


def qualified_graph(bnode_name: str):
    g = Graph()
    node = BlankNode(bnode_name)
    g.add((EX.run, PROV.qualifiedAssociation, node))
    g.add((node, RDF.type, PROV.Association))
    g.add((node, PROV.agent, EX.engine))
    g.add((node, PROV.hadPlan, EX.plan))
    return g


class TestIsomorphic:
    def test_identical_graphs(self):
        assert isomorphic(qualified_graph("q1"), qualified_graph("q1"))

    def test_relabeled_blank_nodes(self):
        assert isomorphic(qualified_graph("q1"), qualified_graph("zz"))
        assert qualified_graph("q1") != qualified_graph("zz")  # literal eq fails

    def test_ground_difference_detected(self):
        g1 = qualified_graph("q1")
        g2 = qualified_graph("q1")
        g2.add((EX.run, PROV.used, EX.data))
        assert not isomorphic(g1, g2)

    def test_bnode_structure_difference_detected(self):
        g1 = qualified_graph("q1")
        g2 = qualified_graph("q1")
        g2.remove((BlankNode("q1"), PROV.hadPlan, EX.plan))
        g2.add((BlankNode("q1"), PROV.hadRole, EX.plan))
        assert not isomorphic(g1, g2)

    def test_multiple_bnodes_permuted(self):
        def two(b1, b2):
            g = Graph()
            g.add((EX.a, PROV.qualifiedUsage, BlankNode(b1)))
            g.add((BlankNode(b1), PROV.entity, EX.e1))
            g.add((EX.a, PROV.qualifiedGeneration, BlankNode(b2)))
            g.add((BlankNode(b2), PROV.activity, EX.a2))
            return g

        assert isomorphic(two("x", "y"), two("y", "x"))

    def test_symmetric_bnodes_need_branching(self):
        # Two structurally identical bnodes: refinement alone cannot split
        # them; branching must still find the bijection.
        def pair(b1, b2):
            g = Graph()
            g.add((EX.s, EX.p, BlankNode(b1)))
            g.add((EX.s, EX.p, BlankNode(b2)))
            g.add((BlankNode(b1), EX.q, BlankNode(b2)))
            return g

        assert isomorphic(pair("a", "b"), pair("m", "n"))

    def test_asymmetric_chain_vs_fork(self):
        chain = Graph()
        chain.add((BlankNode("a"), EX.next, BlankNode("b")))
        chain.add((BlankNode("b"), EX.next, BlankNode("c")))
        fork = Graph()
        fork.add((BlankNode("a"), EX.next, BlankNode("b")))
        fork.add((BlankNode("a"), EX.next, BlankNode("c")))
        assert not isomorphic(chain, fork)

    def test_size_mismatch(self):
        g1 = qualified_graph("q1")
        g2 = Graph()
        assert not isomorphic(g1, g2)

    def test_empty_graphs(self):
        assert isomorphic(Graph(), Graph())

    def test_literal_sensitivity(self):
        g1 = Graph([(BlankNode("n"), EX.value, Literal("a"))])
        g2 = Graph([(BlankNode("n"), EX.value, Literal("b"))])
        assert not isomorphic(g1, g2)


class TestCanonicalHash:
    def test_invariant_under_relabeling(self):
        assert canonical_hash(qualified_graph("q1")) == canonical_hash(qualified_graph("other"))

    def test_differs_for_different_graphs(self):
        g2 = qualified_graph("q1")
        g2.add((EX.extra, RDF.type, PROV.Entity))
        assert canonical_hash(qualified_graph("q1")) != canonical_hash(g2)

    def test_ground_only_graph(self):
        g = Graph([(EX.a, RDF.type, PROV.Entity)])
        assert canonical_hash(g) == canonical_hash(g.copy())


class TestOnTraces:
    def test_reserialized_trace_isomorphic(self, corpus):
        """Turtle round-trip preserves the graph up to bnode labels."""
        from repro.rdf import parse_turtle, serialize_turtle

        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        original = trace.graph()
        reparsed = parse_turtle(serialize_turtle(original))
        assert isomorphic(original, reparsed)

    def test_independent_exports_isomorphic(self, corpus):
        """The trace as emitted and as parsed back from its shipped text
        mint their blank nodes independently but must be isomorphic."""
        from repro.rdf import parse_turtle

        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        assert isomorphic(trace.graph(), parse_turtle(trace.text))

    def test_different_runs_not_isomorphic(self, corpus):
        t1, t2 = corpus.traces[0], corpus.traces[1]
        assert not isomorphic(t1.graph(), t2.graph())
