"""TriG serialization and parsing (RDF 1.1 TriG).

The Wings traces of the corpus use named graphs: each workflow-execution
account is a ``prov:Bundle`` whose contents live in a named graph.  TriG is
Turtle plus ``GRAPH <name> { ... }`` blocks; both the serializer and the
parser delegate to the Turtle machinery.
"""

from __future__ import annotations

from typing import Optional

from .graph import Dataset
from .namespace import NamespaceManager
from .terms import IRI
from .turtle import TurtleParser, serialize_graph_body, serialize_prefixes

__all__ = ["serialize_trig", "parse_trig"]


def serialize_trig(dataset: Dataset, namespaces: Optional[NamespaceManager] = None) -> str:
    """Serialize *dataset* as TriG: default graph first, then named graphs."""
    nsm = namespaces if namespaces is not None else dataset.namespaces
    out = serialize_prefixes([dataset.default, *dataset.named_graphs()], nsm)
    out.extend(serialize_graph_body(dataset.default, nsm))
    for name in dataset.graph_names():
        graph = dataset.graph(name)
        curie = nsm.compact(name) if isinstance(name, IRI) else None
        label = curie if curie is not None else name.n3()
        out.append(f"\nGRAPH {label} {{\n")
        out.extend(serialize_graph_body(graph, nsm, indent="    "))
        out.append("}\n")
    return "".join(out)


def parse_trig(
    text: str, dataset: Optional[Dataset] = None, source: Optional[str] = None
) -> Dataset:
    """Parse TriG text into *dataset* (a new Dataset when omitted).

    *source* names the document in error messages, as in
    :func:`repro.rdf.turtle.parse_turtle`.
    """
    if dataset is None:
        dataset = Dataset()
    parser = TurtleParser(text, dataset=dataset, allow_graphs=True, source=source)
    parser.parse()
    return dataset
