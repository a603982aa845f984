"""In-memory RDF graph and dataset with triple-pattern indexes.

The :class:`Graph` maintains three hash indexes (SPO, POS, OSP) so that any
triple pattern with at least one bound position is answered without a full
scan.  This is the storage engine under both the SPARQL evaluator and the
PROV coverage scanner; the linear fallback (:meth:`Graph.triples_scan`)
is the reference the indexes are tested against
(``tests/rdf/test_graph.py``, ``tests/rdf/test_properties.py``).

:class:`Dataset` adds named graphs, which the corpus uses for Wings bundles
(one ``prov:Bundle`` per workflow execution account) serialized as TriG.

Both carry a monotonic :attr:`Graph.version` counter that is bumped on
every effective mutation; the SPARQL layer keys its statistics and
query-result caches on it, so cache invalidation is a version comparison
instead of a rebuild-per-query (see ``repro.rdf.statistics`` and
``repro.sparql.evaluator``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .namespace import NamespaceManager, RDF
from .terms import BlankNode, IRI, Literal, Term, from_python
from .triple import Object, Predicate, Quad, Subject, Triple

__all__ = ["Graph", "Dataset", "Pattern"]

#: A triple pattern: None matches any term in that position.
Pattern = Tuple[Optional[Subject], Optional[Predicate], Optional[Object]]

_TripleKey = Tuple[Subject, Predicate, Object]


def _coerce_object(value) -> Object:
    """Allow native Python values wherever an object term is expected."""
    if isinstance(value, (IRI, BlankNode, Literal)):
        return value
    return from_python(value)


class Graph:
    """A set of RDF triples with pattern-matching access.

    Supports the usual container protocol (``len``, ``in``, iteration) plus
    set operations (union, intersection, difference) used by the decay
    detector to diff traces of the same workflow template across runs.
    """

    def __init__(
        self,
        triples: Optional[Iterable[Union[Triple, Tuple]]] = None,
        identifier: Optional[Union[IRI, BlankNode]] = None,
        namespaces: Optional[NamespaceManager] = None,
    ):
        self.identifier = identifier
        self.namespaces = namespaces if namespaces is not None else NamespaceManager()
        # Leaf level is a dict-as-ordered-set (term -> None): iteration
        # follows insertion order, so graph traversal is deterministic
        # across processes regardless of PYTHONHASHSEED — the store
        # ingest's byte-identical-segments guarantee depends on this.
        self._spo: Dict[Subject, Dict[Predicate, Dict[Object, None]]] = {}
        self._pos: Dict[Predicate, Dict[Object, Dict[Subject, None]]] = {}
        self._osp: Dict[Object, Dict[Subject, Dict[Predicate, None]]] = {}
        self._size = 0
        self._version = 0
        # The version cell of the Dataset holding this graph: a one-item
        # list shared with it, so the graph holds no reference back to the
        # dataset (no cycle; both are freed by reference counting).
        self._dataset_version: Optional[List[int]] = None
        self._statistics = None
        if triples is not None:
            for t in triples:
                self.add(t)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped on every effective change.

        Two reads returning the same version guarantee the graph content
        did not change in between — the cache layers key on this.
        """
        return self._version

    def statistics(self):
        """The (lazily created) per-graph statistics cache.

        Returns a :class:`repro.rdf.statistics.GraphStatistics` bound to
        this graph; it invalidates itself by comparing :attr:`version`.
        """
        if self._statistics is None:
            from .statistics import GraphStatistics

            self._statistics = GraphStatistics(self)
        return self._statistics

    # -- mutation ---------------------------------------------------------

    def add(self, triple: Union[Triple, Tuple]) -> bool:
        """Add a triple; returns True if it was not already present."""
        s, p, o = self._as_terms(triple)
        po = self._spo.setdefault(s, {})
        objs = po.setdefault(p, {})
        if o in objs:
            return False
        objs[o] = None
        self._pos.setdefault(p, {}).setdefault(o, {})[s] = None
        self._osp.setdefault(o, {}).setdefault(s, {})[p] = None
        self._size += 1
        self._version += 1
        if self._dataset_version is not None:
            self._dataset_version[0] += 1
        return True

    def add_all(self, triples: Iterable[Union[Triple, Tuple]]) -> int:
        """Add many triples; returns the number actually inserted."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Union[Triple, Tuple]) -> bool:
        """Remove a triple; returns True if it was present."""
        s, p, o = self._as_terms(triple)
        objs = self._spo.get(s, {}).get(p)
        if objs is None or o not in objs:
            return False
        self._remove_present(s, p, o)
        self._bump()
        return True

    def _bump(self) -> None:
        """Move this graph's version and its dataset's (``add`` inlines it)."""
        self._version += 1
        if self._dataset_version is not None:
            self._dataset_version[0] += 1

    def _remove_present(self, s: Subject, p: Predicate, o: Object) -> None:
        """Delete a triple known to be present from all three indexes.

        All three paths use strict ``del`` so that index skew (a triple
        present in one index but not another) raises instead of silently
        corrupting size accounting.
        """
        objs = self._spo[s][p]
        del objs[o]
        if not objs:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        subs = self._pos[p][o]
        del subs[s]
        if not subs:
            del self._pos[p][o]
            if not self._pos[p]:
                del self._pos[p]
        preds = self._osp[o][s]
        del preds[p]
        if not preds:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
        self._size -= 1

    def remove_pattern(self, subject=None, predicate=None, obj=None) -> int:
        """Remove every triple matching the pattern; returns the count.

        Victim keys are collected with direct index cursors (no
        :class:`Triple` objects, no per-triple pattern re-matching) and
        deleted via the known-present fast path.
        """
        if subject is None and predicate is None and obj is None:
            count = self._size
            self.clear()
            return count
        victims: List[_TripleKey]
        if subject is not None:
            po = self._spo.get(subject, {})
            if predicate is not None:
                objs = po.get(predicate, ())
                if obj is not None:
                    victims = [(subject, predicate, obj)] if obj in objs else []
                else:
                    victims = [(subject, predicate, o) for o in objs]
            elif obj is not None:
                preds = self._osp.get(obj, {}).get(subject, ())
                victims = [(subject, p, obj) for p in preds]
            else:
                victims = [(subject, p, o) for p, objs in po.items() for o in objs]
        elif predicate is not None:
            os_ = self._pos.get(predicate, {})
            if obj is not None:
                victims = [(s, predicate, obj) for s in os_.get(obj, ())]
            else:
                victims = [(s, predicate, o) for o, subs in os_.items() for s in subs]
        else:
            sp = self._osp.get(obj, {})
            victims = [(s, p, obj) for s, preds in sp.items() for p in preds]
        for s, p, o in victims:
            self._remove_present(s, p, o)
        if victims:
            self._bump()
        return len(victims)

    def clear(self) -> None:
        if self._size:
            self._bump()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0

    def check_invariants(self) -> None:
        """Assert the three indexes agree with each other and with _size.

        A debugging/testing aid: raises AssertionError on any skew
        (orphaned empty buckets, triples missing from an index, or a
        size-accounting drift).
        """
        spo = {(s, p, o) for s, po in self._spo.items() for p, objs in po.items() for o in objs}
        pos = {(s, p, o) for p, os_ in self._pos.items() for o, subs in os_.items() for s in subs}
        osp = {(s, p, o) for o, sp in self._osp.items() for s, preds in sp.items() for p in preds}
        assert spo == pos == osp, "index skew between SPO/POS/OSP"
        assert len(spo) == self._size, f"size accounting drift: {len(spo)} != {self._size}"
        for index in (self._spo, self._pos, self._osp):
            for inner in index.values():
                assert inner, "orphaned empty second-level bucket"
                for leaf in inner.values():
                    assert leaf, "orphaned empty leaf set"

    @staticmethod
    def _as_terms(triple: Union[Triple, Tuple]) -> _TripleKey:
        if isinstance(triple, Triple):
            return triple.as_tuple()
        s, p, o = triple
        return (s, p, _coerce_object(o))

    # -- pattern matching --------------------------------------------------

    def triples(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[Predicate] = None,
        obj: Optional[Object] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern (None = wildcard).

        Index selection: the most selective bound position drives the
        lookup, so ``(s, p, None)`` costs O(result), not O(graph).
        """
        if subject is not None:
            po = self._spo.get(subject)
            if po is None:
                return
            if predicate is not None:
                objs = po.get(predicate)
                if objs is None:
                    return
                if obj is not None:
                    if obj in objs:
                        yield Triple(subject, predicate, obj)
                    return
                for o in objs:
                    yield Triple(subject, predicate, o)
                return
            for p, objs in po.items():
                if obj is not None:
                    if obj in objs:
                        yield Triple(subject, p, obj)
                else:
                    for o in objs:
                        yield Triple(subject, p, o)
            return
        if predicate is not None:
            os_ = self._pos.get(predicate)
            if os_ is None:
                return
            if obj is not None:
                for s in os_.get(obj, ()):
                    yield Triple(s, predicate, obj)
                return
            for o, subjects in os_.items():
                for s in subjects:
                    yield Triple(s, predicate, o)
            return
        if obj is not None:
            sp = self._osp.get(obj)
            if sp is None:
                return
            for s, preds in sp.items():
                for p in preds:
                    yield Triple(s, p, obj)
            return
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield Triple(s, p, o)

    def triples_scan(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[Predicate] = None,
        obj: Optional[Object] = None,
    ) -> Iterator[Triple]:
        """Linear-scan pattern matching (the index ablation baseline)."""
        for s, po in self._spo.items():
            if subject is not None and s != subject:
                continue
            for p, objs in po.items():
                if predicate is not None and p != predicate:
                    continue
                for o in objs:
                    if obj is not None and o != obj:
                        continue
                    yield Triple(s, p, o)

    def count(self, subject=None, predicate=None, obj=None) -> int:
        """Count matching triples straight off the indexes (no Triple
        objects are materialized for the common patterns — the SPARQL join
        planner calls this on its hot path)."""
        if subject is None and predicate is None and obj is None:
            return self._size
        if subject is not None and predicate is None and obj is None:
            return sum(len(objs) for objs in self._spo.get(subject, {}).values())
        if subject is None and predicate is not None and obj is None:
            return sum(len(subs) for subs in self._pos.get(predicate, {}).values())
        if subject is None and predicate is None and obj is not None:
            return sum(len(preds) for preds in self._osp.get(obj, {}).values())
        if subject is not None and predicate is not None and obj is None:
            return len(self._spo.get(subject, {}).get(predicate, ()))
        if subject is None and predicate is not None and obj is not None:
            return len(self._pos.get(predicate, {}).get(obj, ()))
        if subject is not None and predicate is None and obj is not None:
            return len(self._osp.get(obj, {}).get(subject, ()))
        return 1 if (subject, predicate, obj) in self else 0

    # -- single-value convenience accessors --------------------------------

    def value(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[Predicate] = None,
        obj: Optional[Object] = None,
        default=None,
    ):
        """Return the term filling the single None position of the pattern."""
        positions = [subject is None, predicate is None, obj is None]
        if sum(positions) != 1:
            raise ValueError("value() requires exactly one unbound position")
        for t in self.triples(subject, predicate, obj):
            if subject is None:
                return t.subject
            if predicate is None:
                return t.predicate
            return t.object
        return default

    def objects(self, subject: Subject, predicate: Predicate) -> Iterator[Object]:
        for t in self.triples(subject, predicate, None):
            yield t.object

    def subjects(self, predicate: Predicate, obj: Object) -> Iterator[Subject]:
        for t in self.triples(None, predicate, obj):
            yield t.subject

    def predicates(self, subject: Optional[Subject] = None) -> Iterator[Predicate]:
        """Yield the distinct predicates of the graph (or of one subject)."""
        if subject is not None:
            yield from self._spo.get(subject, {})
        else:
            yield from self._pos

    def subjects_of_type(self, rdf_type: IRI) -> Iterator[Subject]:
        yield from self.subjects(RDF.type, rdf_type)

    def resources(self) -> Set[Subject]:
        """All subjects appearing in the graph."""
        return set(self._spo)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        # An empty graph is falsy like other containers; guard against the
        # common bug of `if graph:` meaning `is not None`.
        return self._size > 0

    def __contains__(self, triple: Union[Triple, Tuple]) -> bool:
        s, p, o = self._as_terms(triple)
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._size == other._size and all(t in other for t in self)

    def __repr__(self) -> str:
        name = self.identifier.n3() if self.identifier is not None else "default"
        return f"<Graph {name} ({self._size} triples)>"

    # -- set operations -----------------------------------------------------

    def union(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.add_all(other)
        return result

    def intersection(self, other: "Graph") -> "Graph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return Graph(t for t in small if t in large)

    def difference(self, other: "Graph") -> "Graph":
        return Graph(t for t in self if t not in other)

    __add__ = union
    __sub__ = difference
    __and__ = intersection

    def copy(self) -> "Graph":
        clone = Graph(identifier=self.identifier, namespaces=self.namespaces.copy())
        clone.add_all(self)
        return clone

    # -- analysis helpers ----------------------------------------------------

    def predicate_histogram(self) -> Dict[IRI, int]:
        """Map each predicate to its triple count (used by coverage reports)."""
        return {p: sum(len(s) for s in os_.values()) for p, os_ in self._pos.items()}

    def sorted_triples(self) -> List[Triple]:
        """Deterministically ordered triples (stable serializer output)."""
        return sorted(self.triples(), key=Triple.sort_key)


class Dataset:
    """A default graph plus zero or more named graphs (RDF 1.1 dataset)."""

    def __init__(self, namespaces: Optional[NamespaceManager] = None):
        self.namespaces = namespaces if namespaces is not None else NamespaceManager()
        self._named: Dict[Union[IRI, BlankNode], Graph] = {}
        self._version = [0]
        self.default = self._member(Graph(namespaces=self.namespaces))

    def _member(self, graph: Graph) -> Graph:
        graph._dataset_version = self._version
        return graph

    @property
    def version(self) -> int:
        """Monotonic dataset version, read in O(1): one counter that every
        effective mutation of a member graph and every graph added or
        removed moves."""
        return self._version[0]

    def graph(self, name: Optional[Union[IRI, BlankNode]] = None) -> Graph:
        """Return (creating if needed) the graph with the given name."""
        if name is None:
            return self.default
        g = self._named.get(name)
        if g is None:
            g = self._member(Graph(identifier=name, namespaces=self.namespaces))
            self._named[name] = g
            self._version[0] += 1
        return g

    def has_graph(self, name: Union[IRI, BlankNode]) -> bool:
        return name in self._named

    def remove_graph(self, name: Union[IRI, BlankNode]) -> bool:
        g = self._named.pop(name, None)
        if g is None:
            return False
        g._dataset_version = None
        self._version[0] += 1
        return True

    def graph_names(self) -> List[Union[IRI, BlankNode]]:
        return sorted(self._named, key=lambda t: t.sort_key())

    def named_graphs(self) -> Iterator[Graph]:
        for name in self.graph_names():
            yield self._named[name]

    def add(self, quad: Union[Quad, Tuple]) -> bool:
        if isinstance(quad, Quad):
            return self.graph(quad.graph).add(quad.triple())
        if len(quad) == 4:
            s, p, o, g = quad
            return self.graph(g).add((s, p, o))
        return self.default.add(quad)

    def quads(
        self,
        subject=None,
        predicate=None,
        obj=None,
        graph: Optional[Union[IRI, BlankNode, bool]] = None,
    ) -> Iterator[Quad]:
        """Yield quads matching a pattern.

        *graph* = None matches every graph; pass an IRI/BlankNode to
        restrict to one named graph, or ``False`` for the default graph.
        """
        if graph is None:
            sources: List[Tuple[Optional[Union[IRI, BlankNode]], Graph]] = [(None, self.default)]
            sources.extend((name, g) for name, g in self._named.items())
        elif graph is False:
            sources = [(None, self.default)]
        else:
            g = self._named.get(graph)
            sources = [(graph, g)] if g is not None else []
        for name, g in sources:
            for t in g.triples(subject, predicate, obj):
                yield Quad(t.subject, t.predicate, t.object, name)

    def union_graph(self) -> Graph:
        """Merge the default and all named graphs into one graph.

        This is what the corpus-wide queries run against when graph
        boundaries do not matter (e.g. coverage scans).
        """
        merged = Graph(namespaces=self.namespaces.copy())
        merged.add_all(self.default)
        for g in self._named.values():
            merged.add_all(g)
        return merged

    def __len__(self) -> int:
        return len(self.default) + sum(len(g) for g in self._named.values())

    def __repr__(self) -> str:
        return f"<Dataset default={len(self.default)} named_graphs={len(self._named)} total={len(self)}>"
