"""Test helper: RDF graph isomorphism (blank-node aware equality).

The round-trip *checker* of the serialization tests; nothing in the
package needs it, so it lives beside the tests that do.

Plain ``Graph.__eq__`` compares triples literally, so two graphs that
differ only in blank-node labels — e.g. the qualified-pattern nodes that
two independent serializations of the same trace mint in different orders
— compare unequal.  :func:`isomorphic` decides equality up to a blank-node
bijection, and :func:`canonical_hash` produces a label-independent digest
usable as a cache/dedup key.

Algorithm: iterative color refinement (hash the multiset of each blank
node's ground neighborhood, then refine with neighbor colors to a fixed
point), followed by deterministic branching over the smallest ambiguous
color class when refinement alone cannot individualize — the standard
canonicalization recipe, sized for the corpus's graphs (tens of blank
nodes, not millions).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, Term

__all__ = ["isomorphic", "canonical_hash"]

#: Safety bound: branching is exponential in the worst case.
_MAX_BRANCH_NODES = 64


def _digest(*parts: str) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _term_key(term: Term, colors: Dict[BlankNode, str]) -> str:
    if isinstance(term, BlankNode):
        return f"_:{colors[term]}"
    return term.n3()


def _initial_colors(graph: Graph) -> Dict[BlankNode, str]:
    colors: Dict[BlankNode, str] = {}
    for t in graph:
        for term in (t.subject, t.object):
            if isinstance(term, BlankNode) and term not in colors:
                colors[term] = "init"
    return colors


def _refine(graph: Graph, colors: Dict[BlankNode, str]) -> Dict[BlankNode, str]:
    """One refinement round: color ← hash of incident-triple signatures."""
    new_colors: Dict[BlankNode, str] = {}
    for node in colors:
        signatures: List[str] = []
        for t in graph.triples(node, None, None):
            signatures.append(f"S {t.predicate.n3()} {_term_key(t.object, colors)}")
        for t in graph.triples(None, None, node):
            signatures.append(f"O {t.predicate.n3()} {_term_key(t.subject, colors)}")
        signatures.sort()
        new_colors[node] = _digest(colors[node], *signatures)
    return new_colors


def _refine_to_fixpoint(graph: Graph, colors: Dict[BlankNode, str]) -> Dict[BlankNode, str]:
    while True:
        new_colors = _refine(graph, colors)
        if _partition(new_colors) == _partition(colors):
            return new_colors
        colors = new_colors


def _partition(colors: Dict[BlankNode, str]) -> frozenset:
    """The grouping induced by the colors, independent of color values
    (colors change every round, the *grouping* is what converges)."""
    groups: Dict[str, List[str]] = {}
    for node, color in colors.items():
        groups.setdefault(color, []).append(node.id)
    return frozenset(tuple(sorted(members)) for members in groups.values())


def _ambiguous_class(colors: Dict[BlankNode, str]) -> Optional[List[BlankNode]]:
    groups: Dict[str, List[BlankNode]] = {}
    for node, color in colors.items():
        groups.setdefault(color, []).append(node)
    ambiguous = [members for members in groups.values() if len(members) > 1]
    if not ambiguous:
        return None
    return min(ambiguous, key=lambda members: (len(members), sorted(n.id for n in members)))


def _canonical_form(graph: Graph, colors: Dict[BlankNode, str]) -> str:
    lines = sorted(
        f"{_term_key(t.subject, colors)} {t.predicate.n3()} {_term_key(t.object, colors)}"
        for t in graph
    )
    return "\n".join(lines)


def _canonicalize(graph: Graph, colors: Dict[BlankNode, str], depth: int = 0) -> str:
    colors = _refine_to_fixpoint(graph, colors)
    ambiguous = _ambiguous_class(colors)
    if ambiguous is None:
        return _canonical_form(graph, colors)
    if len(colors) > _MAX_BRANCH_NODES or depth > _MAX_BRANCH_NODES:
        # Give up on full individualization: the refined form is still a
        # sound (if coarser) canonical representative for comparison.
        return _canonical_form(graph, colors)
    # Individualize each candidate in the smallest ambiguous class and
    # keep the lexicographically smallest resulting form.
    best: Optional[str] = None
    for candidate in sorted(ambiguous, key=lambda n: n.id):
        branched = dict(colors)
        branched[candidate] = _digest("pick", colors[candidate])
        form = _canonicalize(graph, branched, depth + 1)
        if best is None or form < best:
            best = form
    return best


def canonical_hash(graph: Graph) -> str:
    """A digest invariant under blank-node relabeling."""
    colors = _initial_colors(graph)
    return _digest(_canonicalize(graph, colors)) if colors else _digest(
        _canonical_form(graph, {})
    )


def isomorphic(left: Graph, right: Graph) -> bool:
    """True when the graphs are equal up to a blank-node bijection."""
    if len(left) != len(right):
        return False
    # Ground (blank-node-free) triples must match exactly.
    left_ground = {t for t in left if not _has_bnode(t)}
    right_ground = {t for t in right if not _has_bnode(t)}
    if left_ground != right_ground:
        return False
    return canonical_hash(left) == canonical_hash(right)


def _has_bnode(triple) -> bool:
    return isinstance(triple.subject, BlankNode) or isinstance(triple.object, BlankNode)
