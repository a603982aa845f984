"""Application (i): dependencies between data products and processes.

Section 3 of the paper: "provenance traces can be used to identify the
process that generated a given data product, and how it was derived from
other data products in order to identify dependencies."

:class:`DependencyAnalyzer` works directly on a trace's RDF graph, so it
applies equally to Taverna and Wings traces (both assert ``prov:used`` and
``prov:wasGeneratedBy``; the analyzer derives entity→entity dependencies
through the shared activity, plus any explicitly asserted derivation
subproperties such as the Wings ``prov:hadPrimarySource``).

The derivation relation is defined once, here, as two property-path
texts, each with its rule:

* ``prov:wasGeneratedBy/prov:used`` — usage through generation — keeping
  the pairs whose source is not the product itself;
* ``prov:wasDerivedFrom | prov:hadPrimarySource | prov:wasQuotedFrom |
  prov:wasRevisionOf`` — asserted derivation — keeping IRI sources only.

The transitive questions — dependencies, dependents, lineage paths — are
one reachability BFS and one shortest-chain BFS over that relation,
which they read one BFS frontier at a time through
:func:`~repro.sparql.paths.eval_path_batch`.  The same code runs on an
in-memory graph and on a store-backed view, whose path walk reads the
store's own orderings in id space.  Each node's step is looked up once
per analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..prov.constants import DERIVATION_SUBPROPERTIES
from ..rdf.graph import Graph
from ..rdf.namespace import PROV
from ..rdf.terms import IRI, Term
from ..sparql import parse_query
from ..sparql.paths import eval_path_batch

__all__ = ["DependencyAnalyzer", "Derivation"]

_ASSERTED = [PROV.wasDerivedFrom] + list(DERIVATION_SUBPROPERTIES)


@dataclass(frozen=True)
class Derivation:
    """One derived → source dependency, with the mediating activity."""

    product: IRI
    source: IRI
    activity: Optional[IRI]  # None when asserted directly (hadPrimarySource, ...)


def _path(text: str):
    """The property path *text* names, as the SPARQL parser reads it."""
    query = parse_query(f"SELECT * WHERE {{ ?product {text} ?source }}")
    return query.where.triples[0].predicate


#: The derivation relation: (path, keep(product, source)) per part.
_DERIVATION = (
    (_path("prov:wasGeneratedBy/prov:used"),
     lambda product, source: source != product),
    (_path("|".join(predicate.n3() for predicate in _ASSERTED)),
     lambda product, source: isinstance(source, IRI)),
)


class DependencyAnalyzer:
    """Entity/process dependency analysis over one trace graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        # Adjacency maps are built lazily: the transitive questions never
        # need them.
        self._generated_by: Optional[Dict[IRI, List[IRI]]] = None
        self._used_by: Optional[Dict[IRI, List[IRI]]] = None
        #: inverse? → {node: its one-step neighbours over _DERIVATION}
        self._steps: Dict[bool, Dict[Term, List[Term]]] = {False: {}, True: {}}

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

    def _step(self, frontier: Iterable[Term], inverse: bool) -> Dict[Term, List[Term]]:
        """``node → [neighbours]`` over the derivation relation — sources
        a product derives from, or with *inverse* products derived from
        a source — covering every node of *frontier*; the nodes not yet
        looked up go to :func:`eval_path_batch` in one column per part."""
        memo = self._steps[inverse]
        todo = [node for node in dict.fromkeys(frontier) if node not in memo]
        if not todo:
            return memo
        ends = [(None, node) if inverse else (node, None) for node in todo]
        found: Dict[Term, Dict[Term, None]] = {node: {} for node in todo}
        for path, keep in _DERIVATION:
            for node, pairs in zip(todo, eval_path_batch(self.graph, path, ends)):
                found[node].update(
                    (product if inverse else source, None)
                    for product, source in pairs if keep(product, source))
        for node, neighbours in found.items():
            memo[node] = list(neighbours)
        return memo

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
        for prop in _ASSERTED:
            for t in self.graph.triples(entity, prop, None):
                if isinstance(t.object, IRI):
                    out.append(Derivation(entity, t.object, None))
        return out

    def transitive_dependencies(self, entity: IRI) -> Set[IRI]:
        """Every data product *entity* transitively depends on."""
        return self._transitive(entity, inverse=False)

    def dependents_of(self, entity: IRI) -> Set[IRI]:
        """Every data product that transitively depends on *entity*."""
        return self._transitive(entity, inverse=True)

    def _transitive(self, entity: IRI, inverse: bool) -> Set[IRI]:
        """Reachable set over the derivation relation (forward = sources
        the entity depends on, inverse = dependent products).  *entity*
        itself is in the answer only when a cycle leads back to it."""
        seen: Set = set()
        frontier = [entity]
        while frontier:
            steps = self._step(frontier, inverse)
            next_frontier = []
            for node in frontier:
                for neighbor in steps[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return seen

    # -- every edge at once ------------------------------------------------------

    def all_dependency_pairs(self) -> List[Tuple[IRI, IRI]]:
        """Every (product, source) pair in the trace, sorted."""
        pairs = set()
        for path, keep in _DERIVATION:
            (found,) = eval_path_batch(self.graph, path, [(None, None)])
            pairs.update(pair for pair in found if keep(*pair))
        return sorted(pairs, key=lambda p: (p[0].value, p[1].value))

    def _in_dag(self, node: Term) -> bool:
        """Is *node* the product or the source of some derivation?"""
        return bool(self._step([node], False)[node] or self._step([node], True)[node])

    def derivation_path(self, product: IRI, source: IRI) -> Optional[List[IRI]]:
        """A shortest derivation chain product → ... → source, or None.

        BFS with parent pointers.  Both endpoints must participate in
        the derivation relation at all (as product *or* source of some
        edge), even for the trivial product == source chain.
        """
        if not self._in_dag(product) or not self._in_dag(source):
            return None
        if product == source:
            return [product]
        parents: Dict = {}
        frontier = [product]
        while frontier:
            steps = self._step(frontier, False)
            next_frontier: List = []
            for node in frontier:
                for neighbor in steps[node]:
                    if neighbor in parents or neighbor == product:
                        continue
                    parents[neighbor] = node
                    if neighbor == source:
                        chain = [source]
                        while chain[-1] != product:
                            chain.append(parents[chain[-1]])
                        return chain[::-1]
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None
