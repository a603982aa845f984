"""PROV library: data model, serializations, inference, and validation.

A self-contained implementation of the W3C PROV family sized for the
corpus: PROV-DM documents (:mod:`.model`), PROV-N output (:mod:`.provn`),
the PROV-O RDF mapping (:mod:`.rdf_io`), forward-chaining inference
(:mod:`.inference`) and PROV-CONSTRAINTS validation (:mod:`.constraints`).
"""

from .constants import (
    ADDITIONAL_TERMS,
    INFLUENCE_SUBPROPERTIES,
    PROV,
    STARTING_POINT_TERMS,
    ProvTerm,
)
from .constraints import Violation, is_valid, validate_document
from .inference import ProvInferencer, infer, inferred_graph
from .model import (
    Association,
    Attribution,
    Communication,
    Delegation,
    Derivation,
    Generation,
    Influence,
    Membership,
    ProvActivity,
    ProvAgent,
    ProvBundle,
    ProvDocument,
    ProvEntity,
    ProvModelError,
    Usage,
)
from .provn import serialize_provn
from .rdf_io import from_dataset, from_graph, to_dataset, to_graph

__all__ = [
    "ProvDocument",
    "ProvBundle",
    "ProvEntity",
    "ProvActivity",
    "ProvAgent",
    "Usage",
    "Generation",
    "Communication",
    "Association",
    "Attribution",
    "Delegation",
    "Derivation",
    "Influence",
    "Membership",
    "ProvModelError",
    "to_graph",
    "to_dataset",
    "from_graph",
    "from_dataset",
    "serialize_provn",
    "infer",
    "inferred_graph",
    "ProvInferencer",
    "validate_document",
    "is_valid",
    "Violation",
    "PROV",
    "ProvTerm",
    "STARTING_POINT_TERMS",
    "ADDITIONAL_TERMS",
    "INFLUENCE_SUBPROPERTIES",
]
