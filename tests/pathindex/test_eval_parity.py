"""Property paths over a store walk its own orderings, in id space.

The contract the store's edge source stands on: over a store-backed
union graph, `eval_path` yields the *same pairs in the same order* as a
walk by definition over the graph's own ``triples()``
(`tests.sparql.path_reference`), and set-identical results to an
in-memory evaluation of the same corpus.  The store's spog / posg
orderings are the only index a walk reads.
"""

from __future__ import annotations

import pytest

from repro.prov.constants import PROV
from repro.sparql.paths import (
    PathAlternative,
    PathClosure,
    PathInverse,
    PathSequence,
    eval_path,
)
from tests.sparql.path_reference import ref_eval

USED = PROV.used
GENERATED_BY = PROV.wasGeneratedBy

PATHS = [
    ("used", USED),
    ("used-plus", PathClosure(USED, False)),
    ("used-star", PathClosure(USED, True)),
    ("derived-plus", PathClosure(PROV.wasDerivedFrom, False)),
    ("inverse-generated", PathInverse(GENERATED_BY)),
    ("used-then-generated", PathSequence((USED, GENERATED_BY))),
    ("lineage-plus", PathClosure(PathAlternative((USED, PathInverse(GENERATED_BY))), False)),
    ("sequence-plus", PathClosure(PathSequence((USED, GENERATED_BY)), False)),
]


def _some_activity(graph):
    return next(iter(graph.triples(None, USED, None))).subject


def _some_entity(graph):
    return next(iter(graph.triples(None, GENERATED_BY, None))).subject


def _probes(graph):
    return graph.runtime_counters()[0]


@pytest.mark.parametrize("name,path", PATHS, ids=[name for name, _ in PATHS])
def test_index_matches_bfs_ordered(store_union, name, path):
    bindings = [
        (None, None),
        (_some_activity(store_union), None),
        (None, _some_activity(store_union)),
        (_some_entity(store_union), None),
        (None, _some_entity(store_union)),
    ]
    for subject, obj in bindings:
        walked = list(eval_path(store_union, path, subject, obj))
        assert walked == ref_eval(store_union, path, subject, obj)  # same order


@pytest.mark.parametrize("name,path", PATHS, ids=[name for name, _ in PATHS])
def test_store_matches_memory(store_union, memory_union, name, path):
    stored = set(eval_path(store_union, path, None, None))
    memory = set(eval_path(memory_union, path, None, None))
    assert stored == memory


def test_bound_pair_endpoint(store_union, memory_union):
    # entity --wasGeneratedBy--> activity --used--> input: the ancestor walk
    path = PathClosure(PathAlternative((GENERATED_BY, USED)), False)
    entity = _some_entity(store_union)
    reached = [o for _, o in eval_path(store_union, path, entity, None)]
    assert reached
    for target in reached[:3]:
        both = list(eval_path(store_union, path, entity, target))
        assert both == list(eval_path(memory_union, path, entity, target))
        assert both == [(entity, target)]


def test_bound_pair_stops_at_its_target(store_union):
    """With both ends bound the walk ends at the first match: reaching
    the first node the subject-only walk finds costs fewer probes than
    that walk over every ancestor."""
    path = PathClosure(PathAlternative((GENERATED_BY, USED)), False)
    entity = _some_entity(store_union)
    before = _probes(store_union)
    reached = [o for _, o in eval_path(store_union, path, entity, None)]
    walk_all = _probes(store_union) - before
    assert len(reached) > 1
    before = _probes(store_union)
    both = list(eval_path(store_union, path, entity, reached[0]))
    assert _probes(store_union) - before < walk_all
    assert both == [(entity, reached[0])]


def test_memory_graph_has_no_index(memory_union, store_union):
    """No graph offers the path index any more: the store offers its own
    orderings as the edge source, the in-memory graph nothing."""
    assert getattr(memory_union, "path_index", None) is None
    assert getattr(memory_union, "path_edges", None) is None
    assert getattr(store_union, "path_index", None) is None
    assert callable(store_union.path_edges)


def test_star_both_unbound_includes_isolated_nodes(store_union):
    """`p*` with both endpoints unbound must pair every node with itself,
    while `p+` only walks from nodes with an outgoing step — the
    seeded-BFS fix."""
    star = set(eval_path(store_union, PathClosure(USED, True), None, None))
    plus = set(eval_path(store_union, PathClosure(USED, False), None, None))
    nodes = set()
    for t in store_union:
        nodes.add(t.subject)
        nodes.add(t.object)
    assert {(n, n) for n in nodes} <= star
    assert plus <= star
    assert all(s != o for s, o in plus)  # prov:used is bipartite here


def test_unbound_closure_probes_per_relation(store_union):
    """With both ends unbound, `+` enumerates each relation's pairs once
    and walks them as adjacency: a couple of bisects per relation, not a
    lookup per visited node (the full corpus: a few dozen probes for
    2,751 rows, where re-deriving each visit's steps took 196,928)."""
    before = _probes(store_union)
    rows = list(eval_path(store_union, dict(PATHS)["lineage-plus"], None, None))
    probes = _probes(store_union) - before
    relations = 2  # prov:used, prov:wasGeneratedBy
    assert 0 < probes <= relations * 2 * len(store_union).bit_length()
    assert len(rows) > 20 * probes


def test_run_lineage_probes_per_distinct_node(store_union, lineage_run, lineage_query):
    """A run's lineage query hands the closure its whole ``?out`` column,
    and the outputs share one step lookup per node: probes grow with the
    distinct ancestors, not with outputs × ancestors."""
    from repro.sparql import QueryEngine

    path = PathClosure(PathSequence((GENERATED_BY, USED)), False)
    engine = QueryEngine(store_union, cache_size=0)
    outs = [row.out for row in engine.query(
        f"SELECT ?out WHERE {{ ?p wfprov:wasPartOfWorkflowRun {lineage_run.n3()} . "
        "?out prov:wasGeneratedBy ?p }")]
    assert len(outs) > 1

    per_out_probes, expected, looked_up = 0, [], set()
    for out in outs:
        before = _probes(store_union)
        pairs = list(eval_path(store_union, path, out, None))
        per_out_probes += _probes(store_union) - before
        expected += pairs
        looked_up.add(out)  # a BFS looks up the start and all it reaches
        looked_up.update(src for _, src in pairs)

    profile = engine.profile(lineage_query)
    scans = [op for op in profile.report["operators"] if op["op"] == "scan"]
    assert scans[-1]["join"] == "path"
    probes = scans[-1]["probes"]  # the path step's own
    assert [(row.out, row.src) for row in profile.result] == expected
    assert 0 < 2 * probes <= per_out_probes
    relations = 2  # prov:used, prov:wasGeneratedBy
    assert probes <= relations * 2 * len(store_union).bit_length() * len(looked_up)
