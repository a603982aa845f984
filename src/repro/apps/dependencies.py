"""Application (i): dependencies between data products and processes.

Section 3 of the paper: "provenance traces can be used to identify the
process that generated a given data product, and how it was derived from
other data products in order to identify dependencies."

:class:`DependencyAnalyzer` works directly on a trace's RDF graph, so it
applies equally to Taverna and Wings traces (both assert ``prov:used`` and
``prov:wasGeneratedBy``; the analyzer derives entity→entity dependencies
through the shared activity, plus any explicitly asserted derivation
subproperties such as the Wings ``prov:hadPrimarySource``).

The transitive questions — dependencies, dependents, lineage paths — are
one reachability BFS and one shortest-chain BFS over an edge source.
Over a store-backed union graph that source is the persisted path index
(the duck-typed ``path_index()`` capability): the pre-composed derivation
DAG in u32 id space, no adjacency scan and no per-step ``prov:used``
lookups.  Over any other graph it is :class:`_TermEdges`, the same read
surface over :meth:`DependencyAnalyzer.all_dependency_pairs` with terms
standing in for ids.  The derivation relation in the index is built by
the same composition rule as
:meth:`DependencyAnalyzer.direct_dependencies`, so both sources agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..prov.constants import DERIVATION_SUBPROPERTIES
from ..rdf.graph import Graph
from ..rdf.namespace import PROV
from ..rdf.terms import IRI

__all__ = ["DependencyAnalyzer", "Derivation"]


@dataclass(frozen=True)
class Derivation:
    """One derived → source dependency, with the mediating activity."""

    product: IRI
    source: IRI
    activity: Optional[IRI]  # None when asserted directly (hadPrimarySource, ...)


class _TermEdges:
    """The path index's read surface over a list of (product, source)
    pairs: terms stand in for node ids and there is one relation, so the
    *rel* argument is ignored."""

    __slots__ = ("_fwd", "_inv")

    DERIVATION = None

    def __init__(self, pairs: Iterable[Tuple[IRI, IRI]]):
        self._fwd: Dict[IRI, List[IRI]] = {}
        self._inv: Dict[IRI, List[IRI]] = {}
        for product, source in pairs:
            self._fwd.setdefault(product, []).append(source)
            self._inv.setdefault(source, []).append(product)

    def neighbors(self, rel, node):
        return self._fwd.get(node, ())

    def neighbors_inv(self, rel, node):
        return self._inv.get(node, ())

    def in_dag(self, rel, node) -> bool:
        return node in self._fwd or node in self._inv


def _same(node):
    return node


class DependencyAnalyzer:
    """Entity/process dependency analysis over one trace graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        probe = getattr(graph, "path_index", None)
        #: Persisted derivation DAG, when the graph is a store-backed
        #: union view with a live index; None otherwise.
        self._index = probe() if callable(probe) else None
        # Adjacency maps are built lazily: the index fast paths never
        # need them, so an analyzer used only for transitive questions
        # over a store skips the two full predicate scans entirely.
        self._generated_by: Optional[Dict[IRI, List[IRI]]] = None
        self._used_by: Optional[Dict[IRI, List[IRI]]] = None
        self._term_edges: Optional[_TermEdges] = None

    @property
    def uses_index(self) -> bool:
        """True when transitive questions ride the persisted path index."""
        return self._index is not None

    def _ensure_maps(self) -> None:
        if self._generated_by is not None:
            return
        generated_by: Dict[IRI, List[IRI]] = {}
        used_by: Dict[IRI, List[IRI]] = {}
        for t in self.graph.triples(None, PROV.wasGeneratedBy, None):
            generated_by.setdefault(t.subject, []).append(t.object)
        for t in self.graph.triples(None, PROV.used, None):
            used_by.setdefault(t.subject, []).append(t.object)
        self._generated_by = generated_by
        self._used_by = used_by

    def _edge_source(self):
        """``(edges, encode, decode)``: the persisted index with the
        graph's term ↔ id maps, or the term adjacency — built on first
        use, once per analyzer — with terms as their own ids."""
        if self._index is not None:
            return self._index, self.graph.term_to_id, self.graph.id_to_term
        if self._term_edges is None:
            self._term_edges = _TermEdges(self.all_dependency_pairs())
        return self._term_edges, _same, _same

    # -- the paper's core question -------------------------------------------

    def generating_process(self, entity: IRI) -> Optional[IRI]:
        """The process that generated *entity* (None for workflow inputs)."""
        self._ensure_maps()
        activities = self._generated_by.get(entity, [])
        return activities[0] if activities else None

    def generated_entities(self) -> List[IRI]:
        """Every entity with a ``prov:wasGeneratedBy`` assertion, sorted."""
        self._ensure_maps()
        return sorted(self._generated_by, key=lambda t: t.value)

    def inputs_of(self, activity: IRI) -> List[IRI]:
        """Entities the activity used, sorted for determinism."""
        self._ensure_maps()
        return sorted(self._used_by.get(activity, []), key=lambda t: t.value)

    def direct_dependencies(self, entity: IRI) -> List[Derivation]:
        """The entities *entity* was directly derived from."""
        self._ensure_maps()
        out: List[Derivation] = []
        for activity in self._generated_by.get(entity, []):
            for source in self.inputs_of(activity):
                if source != entity:
                    out.append(Derivation(entity, source, activity))
        for prop in [PROV.wasDerivedFrom] + list(DERIVATION_SUBPROPERTIES):
            for t in self.graph.triples(entity, prop, None):
                if isinstance(t.object, IRI):
                    out.append(Derivation(entity, t.object, None))
        return out

    def transitive_dependencies(self, entity: IRI) -> Set[IRI]:
        """Every data product *entity* transitively depends on."""
        return self._transitive_ids(entity, inverse=False)

    def dependents_of(self, entity: IRI) -> Set[IRI]:
        """Every data product that transitively depends on *entity*."""
        return self._transitive_ids(entity, inverse=True)

    def _transitive_ids(self, entity: IRI, inverse: bool) -> Set[IRI]:
        """Reachable set over the derivation DAG (forward = sources the
        entity depends on, inverse = dependent products).  *entity*
        itself is in the answer only when an asserted-derivation cycle
        leads back to it."""
        edges, encode, decode = self._edge_source()
        entity_id = encode(entity)
        if entity_id is None:
            return set()
        step = edges.neighbors_inv if inverse else edges.neighbors
        seen: Set = set()
        frontier = [entity_id]
        while frontier:
            current = frontier.pop()
            for neighbor in step(edges.DERIVATION, current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return {decode(node) for node in seen}

    # -- every edge at once ------------------------------------------------------

    def _products(self) -> List[IRI]:
        """Entities with at least one outgoing derivation: generated
        entities plus subjects of asserted derivation (sub)properties —
        products of the latter kind carry no ``prov:wasGeneratedBy``."""
        self._ensure_maps()
        products: Dict[IRI, None] = dict.fromkeys(self._generated_by)
        for prop in [PROV.wasDerivedFrom] + list(DERIVATION_SUBPROPERTIES):
            for t in self.graph.triples(None, prop, None):
                if isinstance(t.object, IRI):
                    products.setdefault(t.subject, None)
        return list(products)

    def all_dependency_pairs(self) -> List[Tuple[IRI, IRI]]:
        """Every (product, source) pair in the trace, sorted."""
        pairs = set()
        for entity in self._products():
            for dep in self.direct_dependencies(entity):
                pairs.add((dep.product, dep.source))
        return sorted(pairs, key=lambda p: (p[0].value, p[1].value))

    def derivation_path(self, product: IRI, source: IRI) -> Optional[List[IRI]]:
        """A shortest derivation chain product → ... → source, or None.

        BFS with parent pointers.  Both endpoints must participate in
        the derivation DAG at all (as product *or* source of some edge),
        even for the trivial product == source chain.
        """
        edges, encode, decode = self._edge_source()
        product_id = encode(product)
        source_id = encode(source)
        if product_id is None or source_id is None:
            return None
        rel = edges.DERIVATION
        if not edges.in_dag(rel, product_id) or not edges.in_dag(rel, source_id):
            return None
        if product_id == source_id:
            return [product]
        parents: Dict = {}
        frontier = [product_id]
        found = False
        while frontier and not found:
            next_frontier: List = []
            for node in frontier:
                for neighbor in edges.neighbors(rel, node):
                    if neighbor in parents or neighbor == product_id:
                        continue
                    parents[neighbor] = node
                    if neighbor == source_id:
                        found = True
                        break
                    next_frontier.append(neighbor)
                if found:
                    break
            frontier = next_frontier
        if not found:
            return None
        chain = [source_id]
        while chain[-1] != product_id:
            chain.append(parents[chain[-1]])
        return [decode(node) for node in reversed(chain)]
