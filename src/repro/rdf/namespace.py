"""Namespaces and prefix management.

A :class:`Namespace` is a convenience factory for IRIs sharing a common
prefix (``PROV.Entity`` → ``IRI("http://www.w3.org/ns/prov#Entity")``), and
a :class:`NamespaceManager` maps prefixes to namespaces for serialization
(compacting IRIs to CURIEs) and parsing (expanding CURIEs back).

The module also defines the namespaces used throughout the corpus: PROV-O,
wfprov/wfdesc (Research Object model), OPMW, and the supporting W3C/DC
vocabularies.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Optional, Tuple

from .terms import IRI

__all__ = [
    "Namespace",
    "NamespaceManager",
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
    "CORE_PREFIXES",
]


class Namespace:
    """An IRI prefix that manufactures terms by attribute or item access."""

    def __init__(self, base: str):
        if not isinstance(base, str) or not base:
            raise ValueError("namespace base must be a non-empty string")
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, name: str) -> IRI:
        return IRI(self._base + name)

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("_"):
            raise AttributeError(name)
        # Attribute names are vocabulary terms spelled out in source code
        # (a bounded set), so the IRI is kept as an instance attribute and
        # later accesses never reach __getattr__.  term() / [...] mint IRIs
        # from data and stay uncached.
        iri = self.__dict__[name] = self.term(name)
        return iri

    def __getitem__(self, name: str) -> IRI:
        return self.term(name)

    def __contains__(self, iri: object) -> bool:
        if isinstance(iri, IRI):
            return iri.value.startswith(self._base)
        if isinstance(iri, str):
            return iri.startswith(self._base)
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(("Namespace", self._base))

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"

    def __str__(self) -> str:
        return self._base


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD_NS = Namespace("http://www.w3.org/2001/XMLSchema#")
PROV = Namespace("http://www.w3.org/ns/prov#")
WFPROV = Namespace("http://purl.org/wf4ever/wfprov#")
WFDESC = Namespace("http://purl.org/wf4ever/wfdesc#")
OPMW = Namespace("http://www.opmw.org/ontology/")
RO = Namespace("http://purl.org/wf4ever/ro#")
DCTERMS = Namespace("http://purl.org/dc/terms/")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")

#: Prefix table shared by serializers and the corpus's SPARQL queries.
CORE_PREFIXES: Dict[str, str] = {
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "owl": OWL.base,
    "xsd": XSD_NS.base,
    "prov": PROV.base,
    "wfprov": WFPROV.base,
    "wfdesc": WFDESC.base,
    "opmw": OPMW.base,
    "ro": RO.base,
    "dcterms": DCTERMS.base,
    "foaf": FOAF.base,
}


class NamespaceManager:
    """Bidirectional prefix ↔ namespace registry.

    Longest-match compaction: when namespaces nest (e.g. a corpus base IRI
    under the ProvBench domain), an IRI compacts against the most specific
    registered namespace.
    """

    def __init__(self, bind_core: bool = True):
        self._prefix_to_ns: Dict[str, str] = {}
        self._ns_to_prefix: Dict[str, str] = {}
        # IRI string -> compact() answer under the current bindings; a
        # document names each IRI many times.  Any bind() empties it.
        self._compacted: Dict[str, Optional[str]] = {}
        if bind_core:
            for prefix, base in CORE_PREFIXES.items():
                self.bind(prefix, base)

    def bind(self, prefix: str, namespace: str | Namespace, replace: bool = True) -> None:
        base = namespace.base if isinstance(namespace, Namespace) else str(namespace)
        if prefix in self._prefix_to_ns and not replace:
            if self._prefix_to_ns[prefix] != base:
                raise ValueError(f"prefix {prefix!r} already bound")
            return
        old = self._prefix_to_ns.get(prefix)
        if old is not None:
            self._ns_to_prefix.pop(old, None)
        self._prefix_to_ns[prefix] = base
        self._ns_to_prefix[base] = prefix
        self._compacted.clear()

    def expand(self, curie: str) -> IRI:
        """Expand ``prefix:local`` into an IRI."""
        if ":" not in curie:
            raise ValueError(f"not a CURIE: {curie!r}")
        prefix, local = curie.split(":", 1)
        try:
            base = self._prefix_to_ns[prefix]
        except KeyError:
            raise KeyError(f"unknown prefix: {prefix!r}") from None
        return IRI(base + local)

    def compact(self, iri: IRI | str) -> Optional[str]:
        """Compact an IRI into ``prefix:local`` if a namespace matches.

        Returns None when no registered namespace is a prefix of the IRI or
        the remaining local part is not a valid CURIE local name.
        """
        value = iri.value if isinstance(iri, IRI) else str(iri)
        try:
            return self._compacted[value]
        except KeyError:
            pass
        best: Optional[Tuple[str, str]] = None
        for base, prefix in self._ns_to_prefix.items():
            if value.startswith(base) and (best is None or len(base) > len(best[0])):
                best = (base, prefix)
        curie = None
        if best is not None:
            base, prefix = best
            local = value[len(base):]
            if _is_valid_local(local):
                curie = f"{prefix}:{local}"
        self._compacted[value] = curie
        return curie

    def namespaces(self) -> Iterator[Tuple[str, str]]:
        """Iterate ``(prefix, base)`` pairs sorted by prefix."""
        return iter(sorted(self._prefix_to_ns.items()))

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._prefix_to_ns

    def __len__(self) -> int:
        return len(self._prefix_to_ns)

    def copy(self) -> "NamespaceManager":
        clone = NamespaceManager(bind_core=False)
        for prefix, base in self._prefix_to_ns.items():
            clone.bind(prefix, base)
        return clone


# ``\w`` on str is "alphanumeric (str.isalnum) or underscore".
_LOCAL_CHARS = re.compile(r"[\w.-]+")


def _is_valid_local(local: str) -> bool:
    """Conservative PN_LOCAL check: serialize unusual locals as full IRIs."""
    if local == "":
        return False
    if local[0] == "-" or local[-1] == ".":
        return False
    return _LOCAL_CHARS.fullmatch(local) is not None
