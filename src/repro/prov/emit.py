"""The PROV-O patterns the exporters write a trace in, straight into RDF.

A trace is its triples: the exporters add them to the
:class:`~repro.rdf.graph.Graph` (Taverna) or
:class:`~repro.rdf.graph.Dataset` graphs (Wings) that the corpus writer
serialises.  These functions cover the patterns with more than one
triple:

* a relation with a time or role adds the *qualified* pattern beside
  the direct triple (``prov:qualifiedUsage`` / ``prov:qualifiedGeneration``
  nodes carrying ``prov:atTime`` / ``prov:hadRole``);
* an association with a plan adds a ``prov:qualifiedAssociation`` node
  whose ``prov:hadPlan`` names it — the Taverna idiom of Table 3;
* a derivation subtype is written as its subproperty only
  (``prov:hadPrimarySource``, ...), as the corpus systems assert it; the
  superproperty is left to :mod:`repro.prov.inference`.

Qualified nodes are blank nodes ``_:q1``, ``_:q2``, ... drawn from one
counter per trace (:func:`qualified_nodes`), one per relation call, so a
trace's labels depend only on the order its exporter calls these.
"""

from __future__ import annotations

import datetime as _dt
import itertools
from typing import Iterator, Optional

from ..rdf.graph import Graph
from ..rdf.namespace import PROV, RDF
from ..rdf.terms import BlankNode, IRI

__all__ = [
    "qualified_nodes",
    "typed",
    "activity",
    "used",
    "was_generated_by",
    "was_associated_with",
    "was_derived_from",
]

#: Derivation subtype → the one property written for it.
_DERIVATION_PROPERTIES = {
    None: PROV.wasDerivedFrom,
    "primary_source": PROV.hadPrimarySource,
    "quotation": PROV.wasQuotedFrom,
    "revision": PROV.wasRevisionOf,
}


def qualified_nodes() -> Iterator[BlankNode]:
    """A trace's qualified-pattern nodes, ``_:q1`` onwards."""
    return (BlankNode(f"q{n}") for n in itertools.count(1))


def typed(graph: Graph, subject: IRI, *types: IRI) -> IRI:
    """Type *subject* with each of *types*; returns *subject*."""
    for rdf_type in types:
        graph.add((subject, RDF.type, rdf_type))
    return subject


def activity(graph: Graph, subject: IRI, *types: IRI,
             start: Optional[_dt.datetime] = None,
             end: Optional[_dt.datetime] = None) -> IRI:
    """A ``prov:Activity`` (plus *types*) with its start and end, when known."""
    if start is not None and end is not None and end < start:
        raise ValueError(f"activity {subject.value} ends ({end}) before it starts ({start})")
    typed(graph, subject, PROV.Activity, *types)
    if start is not None:
        graph.add((subject, PROV.startedAtTime, start))
    if end is not None:
        graph.add((subject, PROV.endedAtTime, end))
    return subject


def _qualify(graph: Graph, node: BlankNode, subject: IRI, link: IRI, cls: IRI,
             target_property: IRI, target: IRI, time, role) -> None:
    graph.add((subject, link, node))
    graph.add((node, RDF.type, cls))
    graph.add((node, target_property, target))
    if time is not None:
        graph.add((node, PROV.atTime, time))
    if role is not None:
        graph.add((node, PROV.hadRole, role))


def used(graph: Graph, qnodes: Iterator[BlankNode], activity_iri: IRI, entity: IRI,
         time: Optional[_dt.datetime] = None, role: Optional[IRI] = None) -> None:
    """``prov:used``, qualified when a time or role is given."""
    graph.add((activity_iri, PROV.used, entity))
    if time is not None or role is not None:
        _qualify(graph, next(qnodes), activity_iri, PROV.qualifiedUsage, PROV.Usage,
                 PROV.entity, entity, time, role)


def was_generated_by(graph: Graph, qnodes: Iterator[BlankNode], entity: IRI,
                     activity_iri: IRI, time: Optional[_dt.datetime] = None,
                     role: Optional[IRI] = None) -> None:
    """``prov:wasGeneratedBy``, qualified when a time or role is given."""
    graph.add((entity, PROV.wasGeneratedBy, activity_iri))
    if time is not None or role is not None:
        _qualify(graph, next(qnodes), entity, PROV.qualifiedGeneration, PROV.Generation,
                 PROV.activity, activity_iri, time, role)


def was_associated_with(graph: Graph, qnodes: Iterator[BlankNode], activity_iri: IRI,
                        agent: IRI, plan: Optional[IRI] = None) -> None:
    """``prov:wasAssociatedWith``, qualified by ``prov:hadPlan`` when a plan is given."""
    graph.add((activity_iri, PROV.wasAssociatedWith, agent))
    if plan is not None:
        node = next(qnodes)
        graph.add((activity_iri, PROV.qualifiedAssociation, node))
        graph.add((node, RDF.type, PROV.Association))
        graph.add((node, PROV.agent, agent))
        graph.add((node, PROV.hadPlan, plan))


def was_derived_from(graph: Graph, generated: IRI, source: IRI,
                     subtype: Optional[str] = None) -> None:
    """A derivation, written as its subtype's property only."""
    graph.add((generated, _DERIVATION_PROPERTIES[subtype], source))
