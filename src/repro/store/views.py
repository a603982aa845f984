"""Read-only Graph/Dataset views over a :class:`~repro.store.quadstore.QuadStore`.

The SPARQL evaluator, the join planner's :class:`GraphStatistics`, the
property-path machinery, and the HTTP endpoint all program against the
:class:`~repro.rdf.graph.Graph` / :class:`~repro.rdf.graph.Dataset`
surface.  These views subclass both so every one of those layers runs on
a disk-backed store *unchanged*:

* :class:`StoreGraph` answers ``triples()`` / ``count()`` / ``predicates()``
  etc. by binary search over the store's sorted segments, decoding ids
  back to terms through the dictionary's bounded LRU, and hands a
  property-path walk those same orderings, in id space, as its edge
  source (``path_edges()``);
* :class:`StoreDataset` maps named-graph access (``GRAPH`` patterns,
  ``quads()``) onto the ``gspo`` ordering and hands the evaluator a
  :class:`StoreGraph` union view from :meth:`union_graph`.

Views are read-only: every mutating method raises
:class:`StoreWriteError`.  ``version`` is the store's compaction
generation, so the engine's version-keyed result cache and the per-graph
statistics cache invalidate correctly if the store is ever re-ingested
behind a running endpoint.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..rdf.graph import Dataset, Graph
from ..rdf.namespace import NamespaceManager
from ..rdf.terms import BlankNode, IRI, Term
from ..rdf.triple import Object, Predicate, Quad, Subject, Triple
from .quadstore import QuadStore
from .segments import ACCESS_PATHS

__all__ = ["StoreGraph", "StoreDataset", "StoreWriteError"]

#: Sentinel graph id for the union view (StoreGraph over all graphs).
_UNION = None


class StoreWriteError(TypeError):
    """Raised when code tries to mutate a store-backed view."""


def _read_only(*_args, **_kwargs):
    raise StoreWriteError(
        "store-backed graphs are read-only; ingest through the QuadStore API"
    )


class StoreGraph(Graph):
    """A Graph whose triples live in a QuadStore.

    ``graph_id`` selects the scope: ``None`` is the union of the default
    and all named graphs (what plain BGPs match), ``0`` the default
    graph, any other id one named graph.
    """

    def __init__(
        self,
        store: QuadStore,
        graph_id: Optional[int] = _UNION,
        identifier: Optional[Union[IRI, BlankNode]] = None,
        namespaces: Optional[NamespaceManager] = None,
    ):
        super().__init__(identifier=identifier, namespaces=namespaces)
        self._store = store
        self._graph_id = graph_id
        self._union_size: Optional[Tuple[int, int]] = None  # (generation, size)
        # term → id cache for the encoded executor; generation-keyed so a
        # re-ingest behind a live engine can never serve stale ids.
        self._encode_cache: Dict[Term, Optional[int]] = {}
        self._encode_cache_generation = store.generation

    # -- version / statistics ------------------------------------------------

    @property
    def version(self) -> int:
        return self._store.generation

    def runtime_counters(self):
        """``(bisect probes, decode-LRU hits)`` — the query profiler
        duck-types on this to attribute store work per triple pattern."""
        return self._store.runtime_counters()

    # -- read-only enforcement ----------------------------------------------

    add = _read_only
    add_all = _read_only
    remove = _read_only
    remove_pattern = _read_only
    clear = _read_only

    # -- id plumbing ---------------------------------------------------------

    #: Encode-cache capacity; cleared wholesale on overflow (queries
    #: re-touch a small working set of constants, so simple wins).
    _ENCODE_CACHE_LIMIT = 65536

    def encoded_scope(self) -> Optional[int]:
        """The scope the encoded BGP executor plans against: ``None``
        for the union view, else the graph id (0 = default graph).

        The *presence* of this method is the capability signal — the
        SPARQL layer duck-types on it and never imports repro.store.
        """
        return self._graph_id

    def access_path(self, s_bound: bool, p_bound: bool, o_bound: bool):
        """The store's :class:`~repro.store.segments.AccessPath` for a
        pattern with these positions bound, in this graph's scope."""
        return ACCESS_PATHS[(s_bound, p_bound, o_bound, self._graph_id is not _UNION)]

    def segment_reader(self, name: str):
        """The store's current :class:`SegmentReader` for *name*."""
        return self._store.segment(name)

    def path_edges(self) -> "_StoreEdges":
        """The id-space edge source of one property-path walk over this
        graph's scope.  Like :meth:`encoded_scope`, the *presence* of
        this method is the capability signal the path evaluator
        duck-types on."""
        return _StoreEdges(self)

    def term_to_id(self, term: Term) -> Optional[int]:
        """term → id through a bounded generation-keyed cache; ``None``
        (also cached) when the dictionary has never seen the term."""
        cache = self._encode_cache
        generation = self._store.generation
        if generation != self._encode_cache_generation:
            cache.clear()
            self._encode_cache_generation = generation
        try:
            return cache[term]
        except KeyError:
            pass
        term_id = self._store.term_id(term)
        if len(cache) >= self._ENCODE_CACHE_LIMIT:
            cache.clear()
        cache[term] = term_id
        return term_id

    def id_to_term(self, term_id: int) -> Term:
        """id → term through the store's bounded decode LRU."""
        return self._store.term(term_id)

    def _encode_pattern(self, subject, predicate, obj):
        """Bound terms → ids; returns None when a bound term is unknown
        to the dictionary (the pattern can then match nothing)."""
        ids = []
        for term in (subject, predicate, obj):
            if term is None:
                ids.append(None)
            else:
                term_id = self.term_to_id(term)
                if term_id is None:
                    return None
                ids.append(term_id)
        return tuple(ids)

    def _decode_triple(self, s: int, p: int, o: int) -> Triple:
        store = self._store
        return Triple(store.term(s), store.term(p), store.term(o))

    # -- pattern matching ----------------------------------------------------

    def _match_ids(self, s, p, o) -> Iterator[Tuple[int, int, int]]:
        """Yield distinct (s, p, o) id triples matching the bound ids."""
        return self._store.match_ids(s, p, o, self._graph_id)

    def triples(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[Predicate] = None,
        obj: Optional[Object] = None,
    ) -> Iterator[Triple]:
        encoded = self._encode_pattern(subject, predicate, obj)
        if encoded is None:
            return
        for s, p, o in self._match_ids(*encoded):
            yield self._decode_triple(s, p, o)

    def triples_scan(self, subject=None, predicate=None, obj=None) -> Iterator[Triple]:
        # The linear-scan ablation baseline has no meaning on sorted
        # segments; serve the indexed path.
        return self.triples(subject, predicate, obj)

    def count(self, subject=None, predicate=None, obj=None) -> int:
        encoded = self._encode_pattern(subject, predicate, obj)
        if encoded is None:
            return 0
        gid = self._graph_id
        if gid is _UNION and encoded == (None, None, None):
            return len(self)
        path, reader, lo, hi = self._store.locate(*encoded, gid)
        if path.collapse or path.filter:
            return sum(1 for _ in path.triples(reader, lo, hi, gid))
        return hi - lo  # the range is the answer

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        if self._graph_id is not _UNION:
            return self.count()
        store = self._store
        cached = self._union_size
        if cached is not None and cached[0] == store.generation:
            return cached[1]
        size = sum(1 for _ in self._match_ids(None, None, None))
        self._union_size = (store.generation, size)
        return size

    def __bool__(self) -> bool:
        return next(self._match_ids(None, None, None), None) is not None

    def __contains__(self, triple) -> bool:
        s, p, o = Graph._as_terms(triple)
        return self.count(s, p, o) > 0

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __repr__(self) -> str:
        if self._graph_id is _UNION:
            scope = "union"
        elif self._graph_id == 0:
            scope = "default"
        else:
            scope = self.identifier.n3() if self.identifier is not None else str(self._graph_id)
        return f"<StoreGraph {scope} @{self._store.path} gen={self.version}>"

    # -- enumeration helpers -------------------------------------------------

    def predicates(self, subject: Optional[Subject] = None) -> Iterator[Predicate]:
        if subject is None and self._graph_id is _UNION:
            for p in self._store.segment("posg").distinct(()):
                yield self._store.term(p)
            return
        encoded = self._encode_pattern(subject, None, None)
        if encoded is None:
            return
        seen: Set[int] = set()
        for _, p, _ in self._match_ids(*encoded):
            if p not in seen:
                seen.add(p)
                yield self._store.term(p)

    def resources(self) -> Set[Subject]:
        if self._graph_id is _UNION:
            return {self._store.term(s) for s in self._store.segment("spog").distinct(())}
        return {
            self._store.term(s)
            for s in self._store.segment("gspo").distinct((self._graph_id,))
        }

    def predicate_histogram(self) -> Dict[IRI, int]:
        histogram: Dict[IRI, int] = {}
        for _, p, _ in self._match_ids(None, None, None):
            term = self._store.term(p)
            histogram[term] = histogram.get(term, 0) + 1
        return histogram


class _Decoded(dict):
    """id → term, each id decoded once: the egress memo of one walk."""

    __slots__ = ("_decode",)

    def __init__(self, decode):
        super().__init__()
        self._decode = decode

    def __missing__(self, term_id):
        term = self[term_id] = self._decode(term_id)
        return term


class _StoreEdges:
    """The edge source a property-path walk reads: the store's own
    orderings, every predicate, in this view's scope.

    Each lookup reads the scope's :data:`ACCESS_PATHS` entry — the
    ordering a pattern with the same bound positions reads — so it
    lists what ``triples()`` would, in the same order: an ``(s, p)``
    lookup gives o ascending, a ``(p, o)`` lookup s ascending, and
    ``pairs(p)`` comes in ``(o, s)`` order.  Readers are resolved once
    per walk; a lookup bisects its lower bound and gallops its upper
    bound from there.  A term the dictionary has never seen gets a
    negative id of its own, which every lookup misses, so a bound ghost
    endpoint still yields its zero-length ``*`` pair; an unknown
    predicate matches nothing.
    """

    __slots__ = ("_view", "_gid", "_out", "_in", "_pairs", "_edge",
                 "_terms", "decode", "_ghosts")

    def __init__(self, view: StoreGraph):
        store, self._gid = view._store, view._graph_id
        self._view = view

        def access(s_bound, o_bound):
            path = view.access_path(s_bound, True, o_bound)
            return path, store.segment(path.ordering), itemgetter(*path.prefix)

        self._out = access(True, False)
        self._in = access(False, True)
        self._pairs = access(False, False)
        self._edge = access(True, True)
        self._terms = _Decoded(store.term)
        self.decode = self._terms.__getitem__
        self._ghosts: Dict[Term, int] = {}

    def relation(self, predicate: IRI) -> int:
        term_id = self._view.term_to_id(predicate)
        return -1 if term_id is None else term_id

    def encode(self, term: Term) -> int:
        term_id = self._view.term_to_id(term)
        if term_id is None:
            term_id = self._ghosts.get(term)
            if term_id is None:
                term_id = self._ghosts[term] = -1 - len(self._ghosts)
                self._terms[term_id] = term
        return term_id

    def _column(self, access, s, p, o, position: int) -> List[int]:
        """One field of a lookup's records, distinct, in record order.
        The range is short: its upper bound is galloped from its lower."""
        path, reader, key_of = access
        key = key_of((s, p, o, self._gid))
        lo = reader.bisect_left(key)
        records = reader.records(lo, reader.gallop_left(key[:-1] + (key[-1] + 1,), lo))
        field = path.fields[position]
        if path.filter:
            gid = self._gid
            return [rec[field] for rec in records if rec[3] == gid]
        if path.collapse:  # a triple in several graphs: adjacent records
            return list(dict.fromkeys([rec[field] for rec in records]))
        return [rec[field] for rec in records]

    def neighbors(self, rel: int, node: int) -> List[int]:
        return self._column(self._out, node, rel, None, 2)

    def neighbors_inv(self, rel: int, node: int) -> List[int]:
        return self._column(self._in, None, rel, node, 0)

    def has_edge(self, rel: int, src: int, dst: int) -> bool:
        return bool(self._column(self._edge, src, rel, dst, 2))

    def pairs(self, rel: int) -> Iterator[Tuple[int, int]]:
        path, reader, _ = self._pairs  # posg in either scope: key (p,)
        records = reader.records(*reader.range_for_prefix((rel,)))
        s_field, _, o_field = path.fields
        if path.filter:
            gid = self._gid
            return ((rec[s_field], rec[o_field]) for rec in records if rec[3] == gid)
        return iter(dict.fromkeys([(rec[s_field], rec[o_field]) for rec in records]))

    def all_nodes(self):
        """Every subject/object node in the scope's full-scan order,
        first seen first — the order ``triples()`` meets them in."""
        return dict.fromkeys(
            node for s, _, o in self._view._match_ids(None, None, None)
            for node in (s, o))


class StoreDataset(Dataset):
    """A Dataset served from a QuadStore (read-only).

    Satisfies everything :class:`~repro.sparql.evaluator.QueryEngine`
    and :class:`~repro.endpoint.server.SparqlEndpoint` need from a
    dataset; named-graph views are created lazily and cached per name.
    """

    def __init__(self, store: QuadStore):
        namespaces = NamespaceManager()
        for prefix, base in store.prefixes.items():
            namespaces.bind(prefix, base, replace=False)
        super().__init__(namespaces=namespaces)
        self._store = store
        self.default = StoreGraph(store, graph_id=0, namespaces=self.namespaces)
        self._union: Optional[Tuple[int, StoreGraph]] = None
        self._view_cache: Dict[int, StoreGraph] = {}

    @property
    def store(self) -> QuadStore:
        return self._store

    @property
    def version(self) -> int:
        return self._store.generation

    def store_info(self) -> Dict:
        """Forwarded to the endpoint's ``/stats`` route."""
        return self._store.store_info()

    # -- read-only enforcement ----------------------------------------------

    add = _read_only
    remove_graph = _read_only

    # -- graph access --------------------------------------------------------

    def _graph_id_for(self, name: Union[IRI, BlankNode]) -> Optional[int]:
        term_id = self._store.term_id(name)
        if term_id is None or term_id not in self._store.manifest["graphs"]:
            return None
        return term_id

    def graph(self, name: Optional[Union[IRI, BlankNode]] = None) -> Graph:
        if name is None:
            return self.default
        gid = self._graph_id_for(name)
        if gid is None:
            # Unknown names yield an empty read-only graph; a store
            # cannot create graphs on first access the way an in-memory
            # Dataset does.
            empty = Graph(identifier=name, namespaces=self.namespaces)
            empty.add = _read_only  # type: ignore[method-assign]
            return empty
        view = self._view_cache.get(gid)
        if view is None:
            view = StoreGraph(
                self._store, graph_id=gid, identifier=name, namespaces=self.namespaces
            )
            self._view_cache[gid] = view
        return view

    def has_graph(self, name: Union[IRI, BlankNode]) -> bool:
        return self._graph_id_for(name) is not None

    def graph_names(self) -> List[Union[IRI, BlankNode]]:
        names = [self._store.term(gid) for gid in self._store.manifest["graphs"]]
        return sorted(names, key=lambda t: t.sort_key())

    def named_graphs(self) -> Iterator[Graph]:
        for name in self.graph_names():
            yield self.graph(name)

    def quads(
        self,
        subject=None,
        predicate=None,
        obj=None,
        graph: Optional[Union[IRI, BlankNode, bool]] = None,
    ) -> Iterator[Quad]:
        if graph is False:
            sources: List[Tuple[Optional[Union[IRI, BlankNode]], Graph]] = [
                (None, self.default)
            ]
        elif graph is None:
            sources = [(None, self.default)]
            sources.extend((name, self.graph(name)) for name in self.graph_names())
        else:
            sources = [(graph, self.graph(graph))] if self.has_graph(graph) else []
        for name, g in sources:
            for t in g.triples(subject, predicate, obj):
                yield Quad(t.subject, t.predicate, t.object, name)

    def union_graph(self) -> Graph:
        cached = self._union
        if cached is not None and cached[0] == self._store.generation:
            return cached[1]
        union = StoreGraph(self._store, graph_id=None, namespaces=self.namespaces)
        self._union = (self._store.generation, union)
        return union

    def __len__(self) -> int:
        return self._store.quad_count

    def __repr__(self) -> str:
        return (
            f"<StoreDataset {self._store.path} quads={len(self)} "
            f"named_graphs={len(self._store.manifest['graphs'])} gen={self.version}>"
        )
