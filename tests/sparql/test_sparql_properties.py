"""Property-based tests (hypothesis) for the SPARQL engine.

Invariants:

* every written order of a BGP's patterns produces the same solution
  multiset (the planner's choice never shows in the answer);
* DISTINCT never increases the row count and removes all duplicates;
* LIMIT/OFFSET slice consistently with the unsliced result;
* UNION row count is the sum of branch counts;
* ASK agrees with SELECT non-emptiness;
* path closure `+` equals the fixpoint of repeated sequence expansion.
"""

import itertools
import string

from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Namespace, PROV
from repro.sparql import QueryEngine
from repro.sparql.paths import PathClosure, eval_path

EX = Namespace("http://example.org/")

_nodes = st.integers(min_value=0, max_value=8).map(lambda i: EX[f"n{i}"])
_predicates = st.sampled_from([PROV.used, PROV.wasGeneratedBy, EX.link])
_triples = st.tuples(_nodes, _predicates, _nodes)
_graphs = st.lists(_triples, min_size=0, max_size=30).map(Graph)


def _row_multiset(table):
    return sorted(tuple(sorted(r.asdict().items(), key=str)) for r in table)


@settings(max_examples=40, deadline=None)
@given(_graphs)
def test_join_order_invariance(graph):
    patterns = [
        "?a prov:used ?b",
        "?c prov:wasGeneratedBy ?a",
        "?c <http://example.org/link> ?d",
    ]
    engine = QueryEngine(graph)
    answers = [
        _row_multiset(engine.select(
            "SELECT ?a ?b ?c ?d WHERE { " + " . ".join(order) + " }"))
        for order in itertools.permutations(patterns)
    ]
    assert all(answer == answers[0] for answer in answers)


@settings(max_examples=40, deadline=None)
@given(_graphs)
def test_distinct_is_idempotent_dedup(graph):
    engine = QueryEngine(graph)
    plain = engine.select("SELECT ?a WHERE { ?a ?p ?b }")
    distinct = engine.select("SELECT DISTINCT ?a WHERE { ?a ?p ?b }")
    assert len(distinct) <= len(plain)
    values = [r.a for r in distinct]
    assert len(values) == len(set(values))
    assert set(values) == {r.a for r in plain}


@settings(max_examples=40, deadline=None)
@given(_graphs, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_limit_offset_slice(graph, limit, offset):
    engine = QueryEngine(graph)
    full = engine.select("SELECT ?a ?b WHERE { ?a prov:used ?b } ORDER BY ?a ?b")
    sliced = engine.select(
        f"SELECT ?a ?b WHERE {{ ?a prov:used ?b }} ORDER BY ?a ?b LIMIT {limit} OFFSET {offset}"
    )
    expected = list(full)[offset : offset + limit]
    assert [r.asdict() for r in sliced] == [r.asdict() for r in expected]


@settings(max_examples=40, deadline=None)
@given(_graphs)
def test_union_counts_add(graph):
    engine = QueryEngine(graph)
    used = engine.select("SELECT ?a ?b WHERE { ?a prov:used ?b }")
    generated = engine.select("SELECT ?a ?b WHERE { ?a prov:wasGeneratedBy ?b }")
    union = engine.select(
        "SELECT ?a ?b WHERE { { ?a prov:used ?b } UNION { ?a prov:wasGeneratedBy ?b } }"
    )
    assert len(union) == len(used) + len(generated)


@settings(max_examples=40, deadline=None)
@given(_graphs)
def test_ask_agrees_with_select(graph):
    engine = QueryEngine(graph)
    rows = engine.select("SELECT ?a WHERE { ?a prov:used ?b }")
    assert engine.ask("ASK { ?a prov:used ?b }") == bool(rows)


@settings(max_examples=40, deadline=None)
@given(_graphs)
def test_plus_closure_is_transitive_closure(graph):
    """`p+` pairs must equal the transitive closure of p's edge set."""
    edges = {(t.subject, t.object) for t in graph.triples(None, EX.link, None)}
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in edges:
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    path_pairs = set(eval_path(graph, PathClosure(EX.link, include_zero=False)))
    assert path_pairs == closure


@settings(max_examples=40, deadline=None)
@given(_graphs)
def test_star_superset_of_plus(graph):
    plus = set(eval_path(graph, PathClosure(EX.link, include_zero=False)))
    star = set(eval_path(graph, PathClosure(EX.link, include_zero=True)))
    assert plus <= star


@settings(max_examples=30, deadline=None)
@given(_graphs)
def test_filter_partition(graph):
    """FILTER(c) and FILTER(!c) rows partition the error-free rows."""
    engine = QueryEngine(graph)
    base = "?a prov:used ?b . BIND(STRLEN(STR(?a)) AS ?n)"
    yes = engine.select(f"SELECT ?a ?b WHERE {{ {base} FILTER(?n > 22) }}")
    no = engine.select(f"SELECT ?a ?b WHERE {{ {base} FILTER(!(?n > 22)) }}")
    everything = engine.select("SELECT ?a ?b WHERE { ?a prov:used ?b }")
    assert len(yes) + len(no) == len(everything)
