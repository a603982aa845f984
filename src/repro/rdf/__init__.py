"""RDF substrate: terms, graphs, datasets, and serializations.

This subpackage is a self-contained RDF 1.1 implementation sized for the
ProvBench corpus: immutable terms, hash-indexed graphs, named-graph
datasets, and three serializations (Turtle, TriG, N-Triples/N-Quads).
"""

from .graph import Dataset, Graph
from .statistics import GraphStatistics
from .namespace import (
    CORE_PREFIXES,
    DCTERMS,
    FOAF,
    OPMW,
    OWL,
    PROV,
    RDF,
    RDFS,
    RO,
    WFDESC,
    WFPROV,
    XSD_NS,
    Namespace,
    NamespaceManager,
)
from .ntriples import parse_nquads, parse_ntriples, serialize_nquads, serialize_ntriples
from .terms import XSD, BlankNode, IRI, Literal, from_python
from .trig import parse_trig, serialize_trig
from .triple import Quad, Triple
from .turtle import parse_turtle, serialize_turtle

__all__ = [
    "IRI",
    "BlankNode",
    "Literal",
    "XSD",
    "from_python",
    "Triple",
    "Quad",
    "Graph",
    "Dataset",
    "GraphStatistics",
    "Namespace",
    "NamespaceManager",
    "CORE_PREFIXES",
    "RDF",
    "RDFS",
    "OWL",
    "XSD_NS",
    "PROV",
    "WFPROV",
    "WFDESC",
    "OPMW",
    "RO",
    "DCTERMS",
    "FOAF",
    "serialize_turtle",
    "parse_turtle",
    "serialize_trig",
    "parse_trig",
    "serialize_ntriples",
    "parse_ntriples",
    "serialize_nquads",
    "parse_nquads",
]
