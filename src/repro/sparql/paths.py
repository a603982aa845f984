"""SPARQL 1.1 property paths.

Provenance queries are path-shaped — "what did this output transitively
derive from" is ``?out (prov:used|prov:wasGeneratedBy)+ ?src`` — so the
engine supports the core path operators in the predicate position:

* ``iri`` — a single step
* ``^path`` — inverse
* ``path1 / path2`` — sequence
* ``path1 | path2`` — alternative
* ``path*`` — zero or more (reflexive-transitive closure)
* ``path+`` — one or more (transitive closure)
* ``( path )`` — grouping

Paths are evaluated by :func:`eval_path`, which yields ``(subject,
object)`` pairs given optionally-bound endpoints; closures are computed
with BFS, seeded from whichever endpoint is bound.  With both endpoints
unbound, one enumeration of the path's step pairs is kept as adjacency:
BFS is seeded from the nodes that can actually begin the path and walks
that adjacency, so no node's steps are looked up twice — zero-length
``*`` pairs still cover every node, as the spec requires, but no BFS
runs from nodes with no outgoing step.

There is one evaluator (:func:`_eval`); what varies is the *edge
source* it walks.  Store-backed graphs can advertise a persisted
reachability index via a duck-typed ``path_index()`` capability (the
same pattern as ``encoded_scope()`` — this module never imports
``repro.store`` or ``repro.pathindex``).  When the path's predicates
all map to indexed relations, the evaluator runs in u32 id space over
mmap'd sorted adjacency — no per-step term decode — and pairs are
decoded only at egress.  Anything the index cannot serve (no index,
unknown predicates, ``GRAPH``-scoped views, ``p*`` with both endpoints
unbound) runs the same evaluator over :class:`_GraphEdges`, which
exposes the index's surface on top of ``graph.triples()`` with terms
standing in for ids.  The ``repro_pathindex_total{outcome}`` counter
tallies the dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs import metrics as _metrics
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Term

__all__ = [
    "Path",
    "PathSequence",
    "PathAlternative",
    "PathInverse",
    "PathClosure",
    "eval_path",
    "index_supported",
]

_PATHINDEX_TOTAL = _metrics.counter(
    "repro_pathindex_total",
    "Property-path evaluations by path-index dispatch outcome",
    labels=("outcome",),
)
for _outcome in ("hit", "fallback", "no-index"):
    _PATHINDEX_TOTAL.labels(_outcome)
del _outcome


class Path:
    """Marker base class for compound path expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class PathSequence(Path):
    steps: Tuple[object, ...]  # each an IRI or Path


@dataclass(frozen=True)
class PathAlternative(Path):
    options: Tuple[object, ...]


@dataclass(frozen=True)
class PathInverse(Path):
    inner: object


@dataclass(frozen=True)
class PathClosure(Path):
    """``inner*`` when *include_zero*, else ``inner+``."""

    inner: object
    include_zero: bool


def eval_path(
    graph: Graph,
    path,
    subject: Optional[Term] = None,
    obj: Optional[Term] = None,
) -> Iterator[Tuple[Term, Term]]:
    """Yield (subject, object) pairs connected by *path*.

    Either endpoint may be bound (a concrete term) or None.  Duplicate
    pairs are suppressed.
    """
    seen: Set[Tuple[Term, Term]] = set()
    for pair in _dispatch(graph, path, subject, obj):
        if pair not in seen:
            seen.add(pair)
            yield pair


# ---------------------------------------------------------------------------
# Index dispatch
# ---------------------------------------------------------------------------


def _live_index(graph: Graph):
    probe = getattr(graph, "path_index", None)
    return probe() if callable(probe) else None


def _compile(path, rel_of):
    """Map *path* onto an edge source's relations; an op tree, or None
    when *rel_of* knows no relation for some predicate IRI (or *path* is
    no path at all)."""
    if isinstance(path, IRI):
        rel = rel_of(path)
        return None if rel is None else ("rel", rel)
    if isinstance(path, PathInverse):
        sub = _compile(path.inner, rel_of)
        return None if sub is None else ("inv", sub)
    if isinstance(path, PathAlternative):
        subs = tuple(_compile(option, rel_of) for option in path.options)
        return None if any(sub is None for sub in subs) else ("alt", subs)
    if isinstance(path, PathSequence):
        subs = tuple(_compile(step, rel_of) for step in path.steps)
        return None if any(sub is None for sub in subs) else ("seq", subs)
    if isinstance(path, PathClosure):
        sub = _compile(path.inner, rel_of)
        return None if sub is None else ("closure", sub, path.include_zero)
    return None


def _index_ops(index, path):
    """*path* compiled onto the index's relation codes, or None when any
    predicate is not an indexed relation."""
    return _compile(path, lambda predicate: index.rel_for(predicate.value))


def _safe(op, s_bound: bool, o_bound: bool) -> bool:
    """Can *op* run fully in id space under these endpoint bindings?

    The one hole is ``p*`` reached with both endpoints unbound: its
    zero-length pairs range over every node in the *graph*, which the
    edge index cannot enumerate.
    """
    kind = op[0]
    if kind == "rel":
        return True
    if kind == "inv":
        return _safe(op[1], o_bound, s_bound)
    if kind == "alt":
        return all(_safe(sub, s_bound, o_bound) for sub in op[1])
    if kind == "seq":
        return _safe_seq(list(op[1]), s_bound, o_bound)
    # closure
    sub, include_zero = op[1], op[2]
    if s_bound:
        return _safe(sub, True, False)
    if o_bound:
        return _safe(sub, False, True)
    if include_zero:
        return False
    return _safe(sub, False, False) and _safe(sub, True, False)


def _safe_seq(ops: List, s_bound: bool, o_bound: bool) -> bool:
    if len(ops) == 1:
        return _safe(ops[0], s_bound, o_bound)
    if s_bound or not o_bound:
        return _safe(ops[0], s_bound, False) and _safe_seq(ops[1:], True, o_bound)
    return _safe(ops[-1], False, True) and _safe_seq(ops[:-1], False, True)


def index_supported(path, index) -> bool:
    """Would the index serve *path* (some endpoint binding permitting)?

    The planner's EXPLAIN annotation: true when every predicate in the
    path maps to an indexed relation.  Endpoint-shape holes (``p*`` both
    unbound) still fall back at runtime; the static answer keys the plan
    the way ``choose_access`` does for plain patterns.
    """
    return index is not None and _index_ops(index, path) is not None


def _dispatch(graph, path, subject, obj):
    index = _live_index(graph)
    if index is None:
        _PATHINDEX_TOTAL.labels("no-index").inc()
    else:
        ops = _index_ops(index, path)
        sid = graph.term_to_id(subject) if subject is not None else None
        oid = graph.term_to_id(obj) if obj is not None else None
        servable = (
            ops is not None
            and _safe(ops, subject is not None, obj is not None)
            # A bound endpoint the dictionary has never seen matches
            # nothing (or only a zero-length pair) — the graph walk
            # already handles that cheaply.
            and not (subject is not None and sid is None)
            and not (obj is not None and oid is None)
        )
        if servable:
            _PATHINDEX_TOTAL.labels("hit").inc()
            decode = graph.id_to_term
            for s_id, o_id in _eval(index, ops, sid, oid):
                yield (decode(s_id), decode(o_id))
            return
        _PATHINDEX_TOTAL.labels("fallback").inc()
    ops = _compile(path, lambda predicate: predicate)
    if ops is None:
        raise TypeError(f"not a path expression: {path!r}")
    yield from _eval(_GraphEdges(graph), ops, subject, obj)


class _GraphEdges:
    """The path index's read surface over ``graph.triples()``.

    Terms stand in for node ids and a predicate IRI is its own relation
    (no ``rel_for`` step), so the one evaluator below also walks graphs
    the index cannot serve.
    Unlike the edge index it can enumerate every node, which is what the
    zero-length pairs of a both-unbound ``p*`` need.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: Graph):
        self.graph = graph

    def has_edge(self, rel, src, dst) -> bool:
        return next(iter(self.graph.triples(src, rel, dst)), None) is not None

    def neighbors(self, rel, node):
        return (t.object for t in self.graph.triples(node, rel, None))

    def neighbors_inv(self, rel, node):
        return (t.subject for t in self.graph.triples(None, rel, node))

    def pairs(self, rel):
        return ((t.subject, t.object) for t in self.graph.triples(None, rel, None))

    def all_nodes(self):
        """Every subject/object node, deduplicated in encounter order (a
        set would iterate in hash order — nondeterministic across runs)."""
        return dict.fromkeys(
            node for t in self.graph for node in (t.subject, t.object))


# ---------------------------------------------------------------------------
# The evaluator: one walk over an edge source — the persisted index (u32
# ids) or _GraphEdges (terms) — so both yield in the same discovery order
# ---------------------------------------------------------------------------


def _eval(edges, op, s, o) -> Iterator[Tuple[object, object]]:
    kind = op[0]
    if kind == "rel":
        rel = op[1]
        if s is not None:
            if o is not None:
                if edges.has_edge(rel, s, o):
                    yield (s, o)
            else:
                for neighbor in edges.neighbors(rel, s):
                    yield (s, neighbor)
        elif o is not None:
            for neighbor in edges.neighbors_inv(rel, o):
                yield (neighbor, o)
        else:
            # The index's pairs() yields in (dst, src) order — the order
            # a union posg scan yields the same triples off the store.
            yield from edges.pairs(rel)
        return
    if kind == "inv":
        for s2, o2 in _eval(edges, op[1], o, s):
            yield (o2, s2)
        return
    if kind == "alt":
        for sub in op[1]:
            yield from _eval(edges, sub, s, o)
        return
    if kind == "seq":
        yield from _eval_seq(edges, list(op[1]), s, o)
        return
    yield from _eval_closure(edges, op, s, o)


def _eval_seq(edges, ops: List, s, o) -> Iterator[Tuple[object, object]]:
    if len(ops) == 1:
        yield from _eval(edges, ops[0], s, o)
        return
    if s is not None or o is None:
        head, rest = ops[0], ops[1:]
        for s1, mid in _eval(edges, head, s, None):
            for _, o1 in _eval_seq(edges, rest, mid, o):
                yield (s1, o1)
    else:
        rest, last = ops[:-1], ops[-1]
        for mid, o1 in _eval(edges, last, None, o):
            for s1, _ in _eval_seq(edges, rest, None, mid):
                yield (s1, o1)


def _closure_from(step, start, include_zero: bool) -> Iterator[object]:
    """BFS from *start*, where ``step(node)`` lists a node's one-step
    targets; yields reachable nodes."""
    if include_zero:
        yield start
    visited: Set[object] = {start} if include_zero else set()
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in step(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
                    yield neighbor
        frontier = next_frontier


def _eval_closure(edges, op, s, o) -> Iterator[Tuple[object, object]]:
    sub, include_zero = op[1], op[2]
    if s is not None:
        forward = _closure_from(
            lambda node: (n for _, n in _eval(edges, sub, node, None)), s, include_zero)
        for node in forward:
            if o is None or node == o:
                yield (s, node)
        return
    if o is not None:
        backward = _closure_from(
            lambda node: (n for n, _ in _eval(edges, sub, None, node)), o, include_zero)
        for node in backward:
            yield (node, o)
        return
    # Both unbound: BFS only from nodes that can begin the path, in their
    # discovery order — never from every node in the graph.
    if include_zero:
        # Zero-length: the spec pairs every node with itself.  _safe
        # keeps the edge index, which cannot enumerate them, out of here.
        for node in edges.all_nodes():
            yield (node, node)
    # One enumeration of the step pairs is the whole step relation: keep
    # it as adjacency and walk that, rather than re-deriving a node's
    # steps on every visit.  The index and a store graph list one
    # source's targets in the order a bound step would (ascending id per
    # relation, alternatives in option order), so discovery order is
    # unchanged; an in-memory Graph lists them in its POS-index order.
    steps: Dict[object, List[object]] = {}
    for s1, o1 in _eval(edges, sub, None, None):
        targets = steps.get(s1)
        if targets is None:
            steps[s1] = [o1]
        else:
            targets.append(o1)

    def adjacent(node):
        return steps.get(node, ())

    for start in steps:
        for reached in _closure_from(adjacent, start, False):
            yield (start, reached)
