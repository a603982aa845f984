"""Property-based tests (hypothesis) for the RDF substrate.

Invariants:

* every serializer round-trips arbitrary graphs (N-Triples, Turtle);
* string escaping round-trips arbitrary text;
* graph set operations obey their algebraic laws;
* indexes agree with the linear scan on arbitrary patterns.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, parse_ntriples, parse_turtle, serialize_ntriples, serialize_turtle
from repro.rdf.terms import (
    XSD,
    BlankNode,
    IRI,
    Literal,
    escape_string,
    unescape_string,
)

# -- strategies -----------------------------------------------------------------

_local = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8)

iris = _local.map(lambda s: IRI(f"http://example.org/{s}"))
bnodes = _local.map(BlankNode)
plain_literals = st.text(max_size=30).map(Literal)
typed_literals = st.integers(min_value=-10**6, max_value=10**6).map(
    lambda n: Literal(str(n), datatype=XSD.INTEGER)
)
lang_literals = st.tuples(st.text(max_size=10), st.sampled_from(["en", "fr", "de"])).map(
    lambda t: Literal(t[0], language=t[1])
)
literals = st.one_of(plain_literals, typed_literals, lang_literals)

subjects = st.one_of(iris, bnodes)
objects_ = st.one_of(iris, bnodes, literals)

triples = st.tuples(subjects, iris, objects_)
graphs = st.lists(triples, max_size=25).map(Graph)


# -- escaping ---------------------------------------------------------------------

@given(st.text(max_size=200))
def test_escape_roundtrip(text):
    assert unescape_string(escape_string(text)) == text


# -- serializer round-trips ----------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(graphs)
def test_ntriples_roundtrip(graph):
    assert parse_ntriples(serialize_ntriples(graph)) == graph


@settings(max_examples=50, deadline=None)
@given(graphs)
def test_turtle_roundtrip(graph):
    assert parse_turtle(serialize_turtle(graph)) == graph


# -- graph algebra -------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(graphs, graphs)
def test_union_commutative(g1, g2):
    assert g1.union(g2) == g2.union(g1)


@settings(max_examples=50, deadline=None)
@given(graphs, graphs)
def test_intersection_subset_of_both(g1, g2):
    meet = g1.intersection(g2)
    assert all(t in g1 and t in g2 for t in meet)


@settings(max_examples=50, deadline=None)
@given(graphs, graphs)
def test_difference_disjoint_from_subtrahend(g1, g2):
    assert all(t not in g2 for t in g1.difference(g2))


@settings(max_examples=50, deadline=None)
@given(graphs, graphs)
def test_union_size_inclusion_exclusion(g1, g2):
    assert len(g1.union(g2)) == len(g1) + len(g2) - len(g1.intersection(g2))


@settings(max_examples=30, deadline=None)
@given(graphs, subjects, iris)
def test_indexes_agree_with_scan(graph, s, p):
    for pattern in [(None, None, None), (s, None, None), (None, p, None), (s, p, None)]:
        assert set(graph.triples(*pattern)) == set(graph.triples_scan(*pattern))


@settings(max_examples=30, deadline=None)
@given(st.lists(triples, max_size=20))
def test_add_remove_restores_empty(triple_list):
    g = Graph()
    added = [t for t in triple_list if g.add(t)]
    for t in added:
        assert g.remove(t)
    assert len(g) == 0
