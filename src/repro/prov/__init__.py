"""PROV-O support: vocabulary, the exporters' triple patterns, inference.

A trace is PROV-O triples from the start: the exporters write them with
the pattern functions of :mod:`.emit`.  :mod:`.constants` lists the PROV-O
terms (Tables 2–3), :mod:`.inference` materialises the entailments behind
the paper's starred cells.  The PROV-CONSTRAINTS checks are SPARQL rules
over the triples (:data:`repro.queries.TRACE_RULES`).
"""

from .constants import (
    ADDITIONAL_TERMS,
    INFLUENCE_SUBPROPERTIES,
    PROV,
    STARTING_POINT_TERMS,
    ProvTerm,
)
from .inference import ProvInferencer, infer, inferred_graph

__all__ = [
    "infer",
    "inferred_graph",
    "ProvInferencer",
    "PROV",
    "ProvTerm",
    "STARTING_POINT_TERMS",
    "ADDITIONAL_TERMS",
    "INFLUENCE_SUBPROPERTIES",
]
