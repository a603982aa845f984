"""Version-keyed, thread-safe per-graph statistics.

The SPARQL join planner (:func:`repro.sparql.plan.plan_bgp_steps`) ranks
triple patterns by predicate cardinality.  Before this module existed it
rebuilt a cardinality dict from scratch on *every query*; now each
:class:`~repro.rdf.graph.Graph` owns one :class:`GraphStatistics` (via
:meth:`Graph.statistics`) that caches cardinalities until the graph's
monotonic version counter moves, at which point the whole cache is
dropped in O(1).

The object is shared between all engines querying the same graph — in
particular between the endpoint's worker threads — so every access is
taken under a lock.  Hit/miss/invalidation counters make the cache's
effectiveness observable through the endpoint's ``/stats`` route.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import Graph
    from .terms import IRI

__all__ = ["GraphStatistics"]


class GraphStatistics:
    """Cached index statistics for one graph, invalidated by version bump."""

    def __init__(self, graph: "Graph"):
        self._graph = graph
        self._lock = threading.Lock()
        self._version = -1  # always behind a fresh graph's version 0+
        self._predicate_cardinality: Dict["IRI", int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _ensure_current_locked(self) -> None:
        version = self._graph.version
        if version != self._version:
            if self._predicate_cardinality:
                self.invalidations += 1
            self._predicate_cardinality.clear()
            self._version = version

    def predicate_cardinality(self, predicate: "IRI") -> int:
        """Triples with this predicate, cached at the current version."""
        with self._lock:
            self._ensure_current_locked()
            cached = self._predicate_cardinality.get(predicate)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
            count = self._graph.count(predicate=predicate)
            self._predicate_cardinality[predicate] = count
            return count

    def distinct_predicates(self) -> int:
        """Number of distinct predicates (straight off the POS index)."""
        return sum(1 for _ in self._graph.predicates())

    def snapshot(self) -> Dict[str, int]:
        """Counters for observability endpoints; safe to call anytime."""
        with self._lock:
            return {
                "version": self._graph.version,
                "cached_predicates": len(self._predicate_cardinality),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }
