"""PROV inference rules over RDF graphs.

The paper's Table 3 stars two cells — prov:Plan for Taverna and
prov:wasInfluencedBy for Taverna — meaning the term "is not directly
asserted in the traces, but it can be inferred".  This module implements
the inference regime that justifies those stars, as forward-chaining rules
over a PROV-O graph:

* **influence-from-subproperty** — every assertion of a subproperty of
  ``prov:wasInfluencedBy`` (``prov:used``, ``prov:wasGeneratedBy``, ...)
  entails ``prov:wasInfluencedBy`` between the same pair.
* **derivation-from-subproperty** — ``prov:hadPrimarySource`` and friends
  entail ``prov:wasDerivedFrom``.
* **plan-from-hadPlan** — the object of ``prov:hadPlan`` is a ``prov:Plan``
  (and hence an entity).
* **communication** — ``used(a2, e) ∧ wasGeneratedBy(e, a1) ⇒
  wasInformedBy(a2, a1)`` (PROV-CONSTRAINTS inference 5).
* **derivation-from-dataflow** (optional) — ``wasGeneratedBy(o, a) ∧
  used(a, i) ⇒ wasDerivedFrom(o, i)``: a *heuristic* the paper explicitly
  declines to assert ("data derivation relationships cannot be asserted
  easily without a proper understanding of the exact function of each
  process"); off by default and kept for the paper's stated future work.
* **typing** — domains/ranges of the starting-point properties type their
  endpoints (Entity/Activity/Agent).

Callers materialize the closure eagerly (:func:`inferred_graph`); the
Table 3 starred cells are checked against it by ``tests/test_coverage.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.namespace import PROV, RDF
from ..rdf.terms import BlankNode, IRI
from ..rdf.triple import Triple
from .constants import DERIVATION_SUBPROPERTIES, INFLUENCE_SUBPROPERTIES

__all__ = ["ProvInferencer", "infer", "inferred_graph"]

#: (property, subject-type, object-type) typing rules for starting-point terms.
_DOMAIN_RANGE: List[Tuple[IRI, Optional[IRI], Optional[IRI]]] = [
    (PROV.used, PROV.Activity, PROV.Entity),
    (PROV.wasGeneratedBy, PROV.Entity, PROV.Activity),
    (PROV.wasInformedBy, PROV.Activity, PROV.Activity),
    (PROV.wasAssociatedWith, PROV.Activity, PROV.Agent),
    (PROV.wasAttributedTo, PROV.Entity, PROV.Agent),
    (PROV.actedOnBehalfOf, PROV.Agent, PROV.Agent),
    (PROV.wasDerivedFrom, PROV.Entity, PROV.Entity),
    (PROV.hadPrimarySource, PROV.Entity, PROV.Entity),
    (PROV.hadMember, PROV.Collection, PROV.Entity),
]


class ProvInferencer:
    """Forward-chaining PROV inference over a graph.

    Each ``apply_*`` method returns the triples it would add; :meth:`run`
    materializes all enabled rules to a fixed point and returns the set of
    newly added triples.
    """

    def __init__(self, graph: Graph, enable_dataflow_derivation: bool = False):
        self.graph = graph
        self.enable_dataflow_derivation = enable_dataflow_derivation

    # -- individual rules ---------------------------------------------------

    def apply_influence_subproperties(self) -> List[Triple]:
        new: List[Triple] = []
        for prop in INFLUENCE_SUBPROPERTIES:
            for t in self.graph.triples(None, prop, None):
                candidate = Triple(t.subject, PROV.wasInfluencedBy, t.object)
                if candidate not in self.graph:
                    new.append(candidate)
        return new

    def apply_derivation_subproperties(self) -> List[Triple]:
        new: List[Triple] = []
        for prop in DERIVATION_SUBPROPERTIES:
            for t in self.graph.triples(None, prop, None):
                candidate = Triple(t.subject, PROV.wasDerivedFrom, t.object)
                if candidate not in self.graph:
                    new.append(candidate)
        return new

    def apply_plan_from_had_plan(self) -> List[Triple]:
        new: List[Triple] = []
        for t in self.graph.triples(None, PROV.hadPlan, None):
            for candidate in (
                Triple(t.object, RDF.type, PROV.Plan),
                Triple(t.object, RDF.type, PROV.Entity),
            ):
                if candidate not in self.graph:
                    new.append(candidate)
        return new

    def apply_communication(self) -> List[Triple]:
        """used(a2, e) ∧ wasGeneratedBy(e, a1) ⇒ wasInformedBy(a2, a1)."""
        new: List[Triple] = []
        for used in self.graph.triples(None, PROV.used, None):
            a2, e = used.subject, used.object
            for gen in self.graph.triples(e, PROV.wasGeneratedBy, None):
                a1 = gen.object
                if a1 == a2:
                    continue
                candidate = Triple(a2, PROV.wasInformedBy, a1)
                if candidate not in self.graph:
                    new.append(candidate)
        return new

    def apply_dataflow_derivation(self) -> List[Triple]:
        """wasGeneratedBy(o, a) ∧ used(a, i) ⇒ wasDerivedFrom(o, i) (heuristic)."""
        new: List[Triple] = []
        for gen in self.graph.triples(None, PROV.wasGeneratedBy, None):
            output, activity = gen.subject, gen.object
            for used in self.graph.triples(activity, PROV.used, None):
                if used.object == output:
                    continue
                candidate = Triple(output, PROV.wasDerivedFrom, used.object)
                if candidate not in self.graph:
                    new.append(candidate)
        return new

    def apply_typing(self) -> List[Triple]:
        new: List[Triple] = []
        for prop, domain, range_ in _DOMAIN_RANGE:
            for t in self.graph.triples(None, prop, None):
                if domain is not None:
                    candidate = Triple(t.subject, RDF.type, domain)
                    if candidate not in self.graph:
                        new.append(candidate)
                if range_ is not None and not isinstance(t.object, BlankNode):
                    candidate = Triple(t.object, RDF.type, range_)
                    if candidate not in self.graph:
                        new.append(candidate)
        return new

    # -- driver ----------------------------------------------------------------

    def rules(self):
        rules = [
            self.apply_influence_subproperties,
            self.apply_derivation_subproperties,
            self.apply_plan_from_had_plan,
            self.apply_communication,
            self.apply_typing,
        ]
        if self.enable_dataflow_derivation:
            rules.insert(2, self.apply_dataflow_derivation)
        return rules

    def run(self, max_rounds: int = 10) -> Set[Triple]:
        """Materialize all rules to a fixed point; returns added triples."""
        added: Set[Triple] = set()
        for _ in range(max_rounds):
            round_new: List[Triple] = []
            for rule in self.rules():
                round_new.extend(rule())
            fresh = [t for t in round_new if t not in added]
            if not fresh:
                return added
            for t in fresh:
                self.graph.add(t)
                added.add(t)
        return added


def infer(graph: Graph, enable_dataflow_derivation: bool = False) -> Set[Triple]:
    """Materialize PROV inferences into *graph*; returns the added triples."""
    return ProvInferencer(graph, enable_dataflow_derivation).run()


def inferred_graph(graph: Graph, enable_dataflow_derivation: bool = False) -> Graph:
    """Return a copy of *graph* with all PROV inferences materialized."""
    clone = graph.copy()
    infer(clone, enable_dataflow_derivation)
    return clone
