"""Application (iii): detection of workflow decay.

Section 3 of the paper: "provenance traces captured over time can be used
to monitor and compare the results generated by the same workflow
template.  Such traces can be used to detect changes in workflow results
and/or to repair a failed workflow by using results from previous runs."

:class:`DecayDetector` compares the workflow-level outputs of successive
runs of one template (the corpus designates 39 multi-run templates for
exactly this purpose): identical checksums across runs mean the workflow
is stable; drifting checksums — caused in the corpus by upstream data
changing between runs — are the decay signal.  For a failed run,
:meth:`DecayDetector.repair_candidates` returns the artifacts of the most
recent earlier successful run, the paper's repair-by-substitution recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..corpus.builder import Corpus, CorpusTrace

__all__ = ["OutputSnapshot", "DecayReport", "RepairSuggestion", "RepairRecord",
           "DecayDetector"]


@dataclass(frozen=True)
class OutputSnapshot:
    """One run's workflow-level outputs: port name → content checksum."""

    run_id: str
    started: object
    status: str
    outputs: Dict[str, str]


@dataclass
class DecayReport:
    """The decay analysis of one template across its runs."""

    template_id: str
    snapshots: List[OutputSnapshot] = field(default_factory=list)
    changed_between: List[tuple] = field(default_factory=list)  # (run_a, run_b, ports)

    @property
    def decayed(self) -> bool:
        return bool(self.changed_between)

    @property
    def stable(self) -> bool:
        return len(self.snapshots) >= 2 and not self.changed_between

    def summary(self) -> str:
        if len(self.snapshots) < 2:
            return f"{self.template_id}: insufficient runs for decay analysis"
        if self.stable:
            return f"{self.template_id}: stable across {len(self.snapshots)} runs"
        changes = "; ".join(
            f"{a}→{b} changed {sorted(ports)}" for a, b, ports in self.changed_between
        )
        return f"{self.template_id}: DECAY detected — {changes}"


@dataclass(frozen=True)
class RepairSuggestion:
    """Reusable artifacts from a previous successful run."""

    failed_run_id: str
    donor_run_id: str
    artifacts: Dict[str, str]  # output port → checksum available for reuse


@dataclass(frozen=True)
class RepairRecord:
    """An applied repair: the substituted outputs plus its own provenance.

    The paper's decay application closes the loop by *repairing* a failed
    workflow with results from previous runs; `graph` records that
    substitution in PROV-O itself (a repair activity that used the donor
    artifacts and generated the substituted outputs, associated with the
    decay tool) — so repairs are as traceable as the runs they fix.
    """

    failed_run_id: str
    donor_run_id: str
    outputs: Dict[str, str]  # output port → substituted checksum
    graph: object  # the repair's PROV-O triples (a repro.rdf.Graph)


class DecayDetector:
    """Cross-run result comparison over a built corpus."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus

    # -- decay detection --------------------------------------------------------

    def snapshot(self, trace: CorpusTrace) -> OutputSnapshot:
        """Extract the output checksums of one run."""
        outputs: Dict[str, str] = {}
        if trace.result is not None:
            for port, item in trace.result.outputs.items():
                outputs[port] = item.checksum
        return OutputSnapshot(trace.run_id, trace.started, trace.status, outputs)

    def analyze_template(self, template_id: str) -> DecayReport:
        """Compare successive successful runs of one template."""
        traces = sorted(
            self.corpus.by_template(template_id), key=lambda t: t.started
        )
        report = DecayReport(template_id)
        report.snapshots = [self.snapshot(t) for t in traces]
        successful = [s for s in report.snapshots if s.status == "ok"]
        for earlier, later in zip(successful, successful[1:]):
            changed = {
                port
                for port in set(earlier.outputs) | set(later.outputs)
                if earlier.outputs.get(port) != later.outputs.get(port)
            }
            if changed:
                report.changed_between.append((earlier.run_id, later.run_id, changed))
        return report

    def detect_all(self, min_runs: int = 2) -> List[DecayReport]:
        """Decay reports for every template with at least *min_runs* runs."""
        reports = []
        for template_id in self.corpus.multi_run_templates():
            report = self.analyze_template(template_id)
            if len(report.snapshots) >= min_runs:
                reports.append(report)
        return reports

    def decayed_templates(self) -> List[str]:
        return [r.template_id for r in self.detect_all() if r.decayed]

    def stable_templates(self) -> List[str]:
        return [r.template_id for r in self.detect_all() if r.stable]

    def upstream_drivers(self, graph, entity) -> List:
        """The data products a drifting output transitively depends on —
        the candidate causes of its decay — sorted by IRI.

        *graph* is the trace (or store-backed union) graph holding the
        runs' provenance; over a store view the traversal rides the
        persisted derivation DAG via
        :class:`~repro.apps.dependencies.DependencyAnalyzer`.
        """
        from .dependencies import DependencyAnalyzer

        analyzer = DependencyAnalyzer(graph)
        return sorted(
            analyzer.transitive_dependencies(entity),
            key=lambda term: getattr(term, "value", str(term)),
        )

    # -- repair ---------------------------------------------------------------------

    def repair_candidates(self, failed_run_id: str) -> Optional[RepairSuggestion]:
        """Artifacts from the latest earlier successful run of the same
        template, usable to substitute the failed run's missing results."""
        failed = self.corpus.trace(failed_run_id)
        if not failed.failed:
            raise ValueError(f"run {failed_run_id!r} did not fail")
        earlier = [
            t
            for t in self.corpus.by_template(failed.template_id)
            if t.status == "ok" and t.started < failed.started
        ]
        if not earlier:
            return None
        donor = max(earlier, key=lambda t: t.started)
        return RepairSuggestion(
            failed_run_id=failed_run_id,
            donor_run_id=donor.run_id,
            artifacts=dict(self.snapshot(donor).outputs),
        )

    def apply_repair(self, failed_run_id: str) -> Optional[RepairRecord]:
        """Substitute the failed run's missing outputs with the donor's,
        and record the substitution as PROV-O (a repair activity)."""
        from ..prov.emit import activity, typed, was_derived_from
        from ..rdf.graph import Graph
        from ..rdf.namespace import PROV, Namespace

        suggestion = self.repair_candidates(failed_run_id)
        if suggestion is None:
            return None
        failed = self.corpus.trace(failed_run_id)
        donor = self.corpus.trace(suggestion.donor_run_id)

        repair_ns = Namespace("http://purl.org/provbench/repair/")
        graph = Graph()
        graph.namespaces.bind("repair", repair_ns)
        tool = typed(graph, repair_ns.term("decay-detector"), PROV.Agent, PROV.SoftwareAgent)
        repair = activity(graph, repair_ns.term(f"repair/{failed_run_id}"),
                          start=failed.ended, end=failed.ended)
        graph.add((repair, PROV.wasAssociatedWith, tool))
        outputs: Dict[str, str] = {}
        for port, checksum in sorted(suggestion.artifacts.items()):
            donor_artifact = typed(
                graph, repair_ns.term(f"donor/{donor.run_id}/{checksum[:12]}"), PROV.Entity
            )
            graph.add((donor_artifact, PROV.value, checksum))
            substituted = typed(
                graph, repair_ns.term(f"substituted/{failed_run_id}/{port}"), PROV.Entity
            )
            graph.add((repair, PROV.used, donor_artifact))
            graph.add((substituted, PROV.wasGeneratedBy, repair))
            was_derived_from(graph, substituted, donor_artifact, subtype="revision")
            outputs[port] = checksum
        return RepairRecord(
            failed_run_id=failed_run_id,
            donor_run_id=donor.run_id,
            outputs=outputs,
            graph=graph,
        )
