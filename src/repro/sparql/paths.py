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

Paths are evaluated a query step at a time: :func:`eval_path_batch`
takes the step's whole column of optionally-bound ``(subject, object)``
endpoints and returns each one's pairs (:func:`eval_path` is its
one-pair form).  The path is compiled and its edge source picked once
per column.  Closures are computed with BFS, seeded from whichever
endpoint is bound; the column's bound-endpoint closures share one
``node → [step targets]`` memo per direction, so the outputs of one run,
whose ancestors mostly coincide, look each shared ancestor's steps up
once — every endpoint still gets its own BFS, in the order a walk of its
own would find its pairs, and a closure with both ends bound stops at
its target.  With both endpoints unbound, one enumeration of the path's
step pairs is kept as adjacency: BFS is seeded from the nodes that can
actually begin the path and walks that adjacency, so no node's steps
are looked up twice — zero-length ``*`` pairs still cover every node, as
the spec requires, but no BFS runs from nodes with no outgoing step.
The memos live as long as one call.

There is one evaluator (:func:`_eval`); what varies is the *edge
source* it walks.  Store-backed graphs can advertise a persisted
reachability index via a duck-typed ``path_index()`` capability (the
same pattern as ``encoded_scope()`` — this module never imports
``repro.store`` or ``repro.pathindex``).  When the path's predicates
all map to indexed relations, the evaluator runs in u32 id space over
mmap'd sorted adjacency — no per-step term decode — and pairs are
decoded only at egress, each id once per column.  Anything the index
cannot serve (no index, unknown predicates, ``GRAPH``-scoped views,
``p*`` with both endpoints unbound, a bound endpoint the dictionary has
never seen) runs the same evaluator over :class:`_GraphEdges`, which
exposes the index's surface on top of ``graph.triples()`` with terms
standing in for ids; one column may use both.  The
``repro_pathindex_total{outcome}`` counter tallies the dispatch, once
per distinct endpoint pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
    "eval_path_batch",
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
    pairs are suppressed.  The one-pair form of :func:`eval_path_batch`.
    """
    return iter(eval_path_batch(graph, path, [(subject, obj)])[0])


def eval_path_batch(
    graph: Graph,
    path,
    endpoints: Sequence[Tuple[Optional[Term], Optional[Term]]],
) -> List[List[Tuple[Term, Term]]]:
    """For each ``(subject, object)`` pair of *endpoints* (either may be
    None), the duplicate-free (subject, object) pairs *path* connects.

    One path step of a query hands its whole endpoint column here: the
    path is compiled, its edge source picked and every closure's step
    lookups memoised once for the column, so the starts of one run's
    outputs share the lookups of the ancestors they share.  Each answer
    is the one its endpoints would get alone, in the same order; a
    repeated pair is answered from its first walk.
    """
    index = _live_index(graph)
    ops = _index_ops(index, path) if index is not None else None
    id_walk = term_walk = None  # made on first use, shared by the column
    terms: Dict[int, Term] = {}  # id → term, decoded once per column
    safe: Dict[Tuple[bool, bool], bool] = {}
    outcomes = {"hit": 0, "fallback": 0, "no-index": 0}
    answers: Dict[Tuple[Optional[Term], Optional[Term]], List[Tuple[Term, Term]]] = {}
    for key in endpoints:
        if key in answers:
            continue
        subject, obj = key
        outcome = "no-index"
        if index is not None:
            outcome = "fallback"
            shape = (subject is not None, obj is not None)
            servable = safe.get(shape)
            if servable is None:
                servable = safe[shape] = ops is not None and _safe(ops, *shape)
            sid = oid = None
            # A bound endpoint the dictionary has never seen matches
            # nothing (or only a zero-length pair) — the graph walk
            # already handles that cheaply.
            if servable and subject is not None:
                sid = graph.term_to_id(subject)
                servable = sid is not None
            if servable and obj is not None:
                oid = graph.term_to_id(obj)
                servable = oid is not None
            if servable:
                outcome = "hit"
                if id_walk is None:
                    id_walk = _Walk(index, ops)
                pairs = []
                for s_id, o_id in dict.fromkeys(id_walk.run(sid, oid)):
                    s_term = terms.get(s_id)
                    if s_term is None:
                        s_term = terms[s_id] = graph.id_to_term(s_id)
                    o_term = terms.get(o_id)
                    if o_term is None:
                        o_term = terms[o_id] = graph.id_to_term(o_id)
                    pairs.append((s_term, o_term))
        if outcome != "hit":
            if term_walk is None:
                term_ops = _compile(path, lambda predicate: predicate)
                if term_ops is None:
                    raise TypeError(f"not a path expression: {path!r}")
                term_walk = _Walk(_GraphEdges(graph), term_ops)
            pairs = list(dict.fromkeys(term_walk.run(subject, obj)))
        outcomes[outcome] += 1
        answers[key] = pairs
    for outcome, count in outcomes.items():
        if count:
            _PATHINDEX_TOTAL.labels(outcome).inc(count)
    return [answers[key] for key in endpoints]


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


class _Walk:
    """One path step over one edge source: the compiled ops, plus the
    closure step memos that every endpoint of the step's column shares."""

    __slots__ = ("edges", "ops", "memos")

    def __init__(self, edges, ops):
        self.edges = edges
        self.ops = ops
        #: (id of a closure op, forward?) → {node: [one-step targets]}
        self.memos: Dict[Tuple[int, bool], Dict[object, List[object]]] = {}

    def run(self, s, o) -> Iterator[Tuple[object, object]]:
        return _eval(self, self.ops, s, o)

    def step(self, op, forward: bool):
        """``node → [targets]`` of closure *op*'s inner path, walked away
        from a bound subject (*forward*) or towards a bound object; each
        node's targets are looked up once per walk, in the order a fresh
        lookup lists them."""
        memo = self.memos.setdefault((id(op), forward), {})
        sub = op[1]

        def step(node):
            targets = memo.get(node)
            if targets is None:
                if forward:
                    targets = [n for _, n in _eval(self, sub, node, None)]
                else:
                    targets = [n for n, _ in _eval(self, sub, None, node)]
                memo[node] = targets
            return targets

        return step


def _eval(walk: _Walk, op, s, o) -> Iterator[Tuple[object, object]]:
    kind = op[0]
    if kind == "rel":
        edges, rel = walk.edges, op[1]
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
        for s2, o2 in _eval(walk, op[1], o, s):
            yield (o2, s2)
        return
    if kind == "alt":
        for sub in op[1]:
            yield from _eval(walk, sub, s, o)
        return
    if kind == "seq":
        yield from _eval_seq(walk, list(op[1]), s, o)
        return
    yield from _eval_closure(walk, op, s, o)


def _eval_seq(walk: _Walk, ops: List, s, o) -> Iterator[Tuple[object, object]]:
    if len(ops) == 1:
        yield from _eval(walk, ops[0], s, o)
        return
    if s is not None or o is None:
        head, rest = ops[0], ops[1:]
        for s1, mid in _eval(walk, head, s, None):
            for _, o1 in _eval_seq(walk, rest, mid, o):
                yield (s1, o1)
    else:
        rest, last = ops[:-1], ops[-1]
        for mid, o1 in _eval(walk, last, None, o):
            for s1, _ in _eval_seq(walk, rest, None, mid):
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


def _eval_closure(walk: _Walk, op, s, o) -> Iterator[Tuple[object, object]]:
    sub, include_zero = op[1], op[2]
    # A bound endpoint gets its own BFS, over step lookups the whole
    # column shares: its pairs come out in the order a walk of its own
    # would find them, but no node's steps are looked up twice.
    if s is not None:
        forward = _closure_from(walk.step(op, True), s, include_zero)
        if o is None:
            for node in forward:
                yield (s, node)
        elif o in forward:  # stops walking at the first match
            yield (s, o)
        return
    if o is not None:
        for node in _closure_from(walk.step(op, False), o, include_zero):
            yield (node, o)
        return
    # Both unbound: BFS only from nodes that can begin the path, in their
    # discovery order — never from every node in the graph.
    if include_zero:
        # Zero-length: the spec pairs every node with itself.  _safe
        # keeps the edge index, which cannot enumerate them, out of here.
        for node in walk.edges.all_nodes():
            yield (node, node)
    # One enumeration of the step pairs is the whole step relation: keep
    # it as adjacency and walk that, rather than re-deriving a node's
    # steps on every visit.  The index and a store graph list one
    # source's targets in the order a bound step would (ascending id per
    # relation, alternatives in option order), so discovery order is
    # unchanged; an in-memory Graph lists them in its POS-index order.
    steps: Dict[object, List[object]] = {}
    for s1, o1 in _eval(walk, sub, None, None):
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
