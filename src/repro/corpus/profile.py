"""Structural profiling of the corpus traces.

Computes the per-trace and corpus-level structural metrics a ProvBench
consumer wants before running experiments against the corpus: how many
entities/activities per trace, how PROV statements distribute over
properties, trace size distributions, and per-system/per-domain rollups.
The profile feeds the ``corpus_profile.json`` artifact regenerated by the
benchmark harness.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from ..rdf.namespace import PROV, RDF
from .builder import Corpus, CorpusTrace

__all__ = ["TraceProfile", "CorpusProfile", "profile_corpus"]


@dataclass(frozen=True)
class TraceProfile:
    """Structural metrics of one trace."""

    run_id: str
    system: str
    domain: str
    status: str
    triples: int
    entities: int
    activities: int
    size_bytes: int


@dataclass
class CorpusProfile:
    """Corpus-level rollup of trace profiles."""

    traces: List[TraceProfile] = field(default_factory=list)
    predicate_histogram: Dict[str, int] = field(default_factory=dict)

    def _values(self, attribute: str, system: str = None) -> List[int]:
        return [
            getattr(t, attribute)
            for t in self.traces
            if system is None or t.system == system
        ]

    def summary(self) -> Dict[str, object]:
        triples = self._values("triples")
        return {
            "traces": len(self.traces),
            "total_triples": sum(triples),
            "triples_per_trace": {
                "min": min(triples),
                "median": statistics.median(triples),
                "mean": round(statistics.mean(triples), 1),
                "max": max(triples),
            },
            "mean_triples_by_system": {
                "taverna": round(statistics.mean(self._values("triples", "taverna")), 1),
                "wings": round(statistics.mean(self._values("triples", "wings")), 1),
            },
            "mean_activities_per_trace": round(
                statistics.mean(self._values("activities")), 2
            ),
            "mean_entities_per_trace": round(
                statistics.mean(self._values("entities")), 2
            ),
            "failed_trace_mean_triples": round(
                statistics.mean(
                    t.triples for t in self.traces if t.status == "failed"
                ), 1,
            ),
            "successful_trace_mean_triples": round(
                statistics.mean(
                    t.triples for t in self.traces if t.status == "ok"
                ), 1,
            ),
            "top_prov_properties": self.top_prov_properties(8),
        }

    def top_prov_properties(self, n: int) -> List[Dict[str, object]]:
        prov_only = {
            iri: count
            for iri, count in self.predicate_histogram.items()
            if iri.startswith(PROV.base)
        }
        ranked = sorted(prov_only.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {"property": f"prov:{iri[len(PROV.base):]}", "statements": count}
            for iri, count in ranked[:n]
        ]

    def by_domain(self) -> Dict[str, Dict[str, int]]:
        rollup: Dict[str, Dict[str, int]] = {}
        for trace in self.traces:
            entry = rollup.setdefault(
                trace.domain, {"traces": 0, "triples": 0, "failed": 0}
            )
            entry["traces"] += 1
            entry["triples"] += trace.triples
            if trace.status == "failed":
                entry["failed"] += 1
        return rollup


def _profile_trace(trace: CorpusTrace) -> TraceProfile:
    dataset = trace.dataset()
    graphs = (dataset.default, *dataset.named_graphs())

    def typed(rdf_type) -> int:
        # Counted per graph and summed: a bundle is its own scope.
        return sum(graph.count(None, RDF.type, rdf_type) for graph in graphs)

    return TraceProfile(
        run_id=trace.run_id,
        system=trace.system,
        domain=trace.domain,
        status=trace.status,
        triples=trace.triples,
        entities=typed(PROV.Entity),
        activities=typed(PROV.Activity),
        size_bytes=trace.size_bytes,
    )


def profile_corpus(corpus: Corpus) -> CorpusProfile:
    """Profile every trace and aggregate the predicate histogram."""
    profile = CorpusProfile()
    for trace in corpus.traces:
        profile.traces.append(_profile_trace(trace))
        for predicate, count in trace.graph().predicate_histogram().items():
            key = predicate.value
            profile.predicate_histogram[key] = (
                profile.predicate_histogram.get(key, 0) + count
            )
    return profile
