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
source* it walks, and the graph picks it, never the path.  A
store-backed graph offers its own through a duck-typed ``path_edges()``
capability (the same pattern as ``encoded_scope()`` — this module never
imports ``repro.store``): every lookup reads the scope's ``spog`` /
``posg`` (or, in one named graph, ``gspo``) ordering in u32 id space,
for every predicate, and pairs are decoded only at egress, each id once
per column.  Any other graph is walked over :class:`_GraphEdges`, the
same surface over ``graph.triples()`` with terms standing in for ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
    "first_access",
]


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
    path is compiled, its edge source made and every closure's step
    lookups memoised once for the column, so the starts of one run's
    outputs share the lookups of the ancestors they share.  Each answer
    is the one its endpoints would get alone, in the same order; a
    repeated pair is answered from its first walk.
    """
    offer = getattr(graph, "path_edges", None)
    edges = offer() if callable(offer) else _GraphEdges(graph)
    ops = _compile(path, edges.relation)
    if ops is None:
        raise TypeError(f"not a path expression: {path!r}")
    walk = _Walk(edges, ops)
    encode, decode = edges.encode, edges.decode
    answers: Dict[Tuple[Optional[Term], Optional[Term]], List[Tuple[Term, Term]]] = {}
    for key in endpoints:
        if key in answers:
            continue
        subject, obj = key
        pairs = dict.fromkeys(walk.run(
            None if subject is None else encode(subject),
            None if obj is None else encode(obj)))
        answers[key] = ([(decode(s), decode(o)) for s, o in pairs]
                        if decode is not None else list(pairs))
    return [answers[key] for key in endpoints]


def _compile(path, rel_of):
    """Map *path* onto an edge source's relations: an op tree, or None
    when *path* is no path at all."""
    if isinstance(path, IRI):
        return ("rel", rel_of(path))
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


def first_access(path, s_bound: bool, o_bound: bool) -> Tuple[bool, bool, bool]:
    """The (s, p, o) positions bound in the first lookup a walk of *path*
    makes with these endpoints bound — what EXPLAIN names the step's
    ordering by.  A both-unbound ``*`` first lists every node."""
    if isinstance(path, PathInverse):
        return first_access(path.inner, o_bound, s_bound)
    if isinstance(path, PathAlternative):
        return first_access(path.options[0], s_bound, o_bound)
    if isinstance(path, PathSequence):
        if len(path.steps) == 1:
            return first_access(path.steps[0], s_bound, o_bound)
        if s_bound or not o_bound:
            return first_access(path.steps[0], s_bound, False)
        return first_access(path.steps[-1], False, True)
    if isinstance(path, PathClosure):
        if s_bound or o_bound:
            return first_access(path.inner, s_bound, not s_bound)
        if path.include_zero:
            return (False, False, False)
        return first_access(path.inner, False, False)
    return (s_bound, True, o_bound)


class _GraphEdges:
    """The term-space edge source: an in-memory graph's ``triples()``,
    with terms standing in for node ids and a predicate IRI for its own
    relation."""

    __slots__ = ("graph",)

    decode = None  # pairs leave the walk as they are

    def __init__(self, graph: Graph):
        self.graph = graph

    @staticmethod
    def relation(predicate):
        return predicate

    @staticmethod
    def encode(term):
        return term

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
# The evaluator: one walk over an edge source — a store's orderings (u32
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
            # A store's pairs() read posg: (o, s) order, the order its
            # triples() yields the same pattern in.
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
        # Zero-length: the spec pairs every node with itself.
        for node in walk.edges.all_nodes():
            yield (node, node)
    # One enumeration of the step pairs is the whole step relation: keep
    # it as adjacency and walk that, rather than re-deriving a node's
    # steps on every visit.  A store graph lists one source's targets
    # in the order a bound step would (ascending id per
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
