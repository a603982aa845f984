"""PROV term coverage analysis — the paper's Tables 2 and 3.

Scans each system's merged trace graph for the PROV-O *starting point*
terms (Table 2) and the *additional* terms (Table 3), distinguishing
three levels of support:

* ``direct`` — the term is asserted in the traces;
* ``inferred`` — not asserted, but derivable by PROV inference
  (:mod:`repro.prov.inference`); these are the paper's starred cells;
* ``absent`` — neither asserted nor inferable.

:data:`PAPER_TABLE2` / :data:`PAPER_TABLE3` encode the cells the paper
reports, so tests and the bench can check the reproduction cell-for-cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .prov.constants import ADDITIONAL_TERMS, STARTING_POINT_TERMS, ProvTerm
from .prov.inference import inferred_graph
from .rdf.graph import Graph
from .rdf.namespace import RDF

__all__ = [
    "SUPPORT_DIRECT",
    "SUPPORT_INFERRED",
    "SUPPORT_ABSENT",
    "TermCoverage",
    "CoverageReport",
    "scan_term",
    "coverage_report",
    "format_table2",
    "format_table3",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "paper_cells",
]

SUPPORT_DIRECT = "direct"
SUPPORT_INFERRED = "inferred"
SUPPORT_ABSENT = "absent"

#: The paper's Table 2 cells: term name → (taverna, wings) assertion support.
PAPER_TABLE2: Dict[str, Tuple[str, str]] = {
    "prov:Activity": (SUPPORT_DIRECT, SUPPORT_DIRECT),
    "prov:Agent": (SUPPORT_DIRECT, SUPPORT_DIRECT),
    "prov:Entity": (SUPPORT_DIRECT, SUPPORT_DIRECT),
    "prov:actedOnBehalfOf": (SUPPORT_ABSENT, SUPPORT_ABSENT),
    "prov:endedAtTime": (SUPPORT_DIRECT, SUPPORT_ABSENT),
    "prov:startedAtTime": (SUPPORT_DIRECT, SUPPORT_ABSENT),
    "prov:used": (SUPPORT_DIRECT, SUPPORT_DIRECT),
    "prov:wasAssociatedWith": (SUPPORT_DIRECT, SUPPORT_DIRECT),
    "prov:wasAttributedTo": (SUPPORT_ABSENT, SUPPORT_DIRECT),
    "prov:wasDerivedFrom": (SUPPORT_ABSENT, SUPPORT_ABSENT),
    "prov:wasGeneratedBy": (SUPPORT_DIRECT, SUPPORT_DIRECT),
    "prov:wasInformedBy": (SUPPORT_DIRECT, SUPPORT_ABSENT),
}

#: The paper's Table 3 cells (starred = inferred).
PAPER_TABLE3: Dict[str, Tuple[str, str]] = {
    "prov:Bundle": (SUPPORT_ABSENT, SUPPORT_DIRECT),
    "prov:Plan": (SUPPORT_INFERRED, SUPPORT_DIRECT),
    "prov:wasInfluencedBy": (SUPPORT_INFERRED, SUPPORT_DIRECT),
    "prov:hadPrimarySource": (SUPPORT_ABSENT, SUPPORT_DIRECT),
    "prov:atLocation": (SUPPORT_ABSENT, SUPPORT_DIRECT),
}

#: Paper row comments, reproduced for the formatted tables.
_COMMENTS = {
    "prov:startedAtTime": "Activity start and end not recorded in Wings provenance traces",
    "prov:endedAtTime": "Same as above",
    "prov:wasAttributedTo": "No direct attribution is recorded in Taverna provenance traces",
    "prov:wasInformedBy": "Used to express the connection between sub-workflows",
    "prov:Plan": "prov:hadPlan is used in Taverna, instead of prov:Plan",
    "prov:wasInfluencedBy": (
        "No explicit influence relationship is expressed in Taverna, "
        "but only its subproperties, e.g., prov:used, etc."
    ),
}


@dataclass(frozen=True)
class TermCoverage:
    """Coverage of one PROV term by both systems."""

    term: ProvTerm
    taverna: str
    wings: str

    @property
    def support_label(self) -> str:
        """The paper's "Support by the Systems" cell text."""
        parts = []
        if self.taverna == SUPPORT_DIRECT:
            parts.append("Taverna")
        elif self.taverna == SUPPORT_INFERRED:
            parts.append("Taverna*")
        if self.wings == SUPPORT_DIRECT:
            parts.append("Wings")
        elif self.wings == SUPPORT_INFERRED:
            parts.append("Wings*")
        return " and ".join(parts) if parts else "-"

    @property
    def comment(self) -> str:
        return _COMMENTS.get(self.term.name, "")

    @property
    def cells(self) -> Tuple[str, str]:
        return (self.taverna, self.wings)

    def asserted(self) -> "TermCoverage":
        """This entry with inferred support counted as absent."""
        return TermCoverage(self.term, *(
            SUPPORT_ABSENT if value == SUPPORT_INFERRED else value for value in self.cells
        ))


@dataclass
class CoverageReport:
    """The full coverage analysis of a corpus."""

    starting_point: List[TermCoverage]
    additional: List[TermCoverage]

    def cell(self, term_name: str) -> Optional[TermCoverage]:
        for entry in self.starting_point + self.additional:
            if entry.term.name == term_name:
                return entry
        return None

    def tables(self) -> Tuple[List[TermCoverage], List[TermCoverage]]:
        """Tables 2 and 3 as the paper reports them.

        Table 2 tracks assertion only: there, inferred counts as absent.
        """
        return [entry.asserted() for entry in self.starting_point], self.additional

    def matches_paper(self) -> bool:
        """True when every cell equals the paper's tables."""
        return not self.differences()

    def differences(self) -> List[str]:
        """Human-readable list of cells that deviate from the paper."""
        return [
            f"{entry.term.name}: expected {paper_cells(entry.term.name)}, "
            f"measured {entry.cells}"
            for rows in self.tables() for entry in rows
            if entry.cells != paper_cells(entry.term.name)
        ]


def paper_cells(term_name: str) -> Tuple[str, str]:
    """The paper's (Taverna, Wings) cell for a term of Table 2 or 3."""
    if term_name in PAPER_TABLE2:
        return PAPER_TABLE2[term_name]
    return PAPER_TABLE3[term_name]


def scan_term(graph: Graph, term: ProvTerm) -> bool:
    """True when *term* is directly asserted in *graph*."""
    if term.is_class:
        return graph.count(None, RDF.type, term.iri) > 0
    return graph.count(None, term.iri, None) > 0


def _support(direct: Graph, inferred: Graph, term: ProvTerm) -> str:
    if scan_term(direct, term):
        return SUPPORT_DIRECT
    if scan_term(inferred, term):
        return SUPPORT_INFERRED
    return SUPPORT_ABSENT


def coverage_report(taverna_graph: Graph, wings_graph: Graph) -> CoverageReport:
    """Compute Tables 2 and 3 from each system's merged trace graph."""
    taverna_inferred = inferred_graph(taverna_graph)
    wings_inferred = inferred_graph(wings_graph)

    def rows(terms: List[ProvTerm]) -> List[TermCoverage]:
        return [
            TermCoverage(
                term,
                _support(taverna_graph, taverna_inferred, term),
                _support(wings_graph, wings_inferred, term),
            )
            for term in terms
        ]

    return CoverageReport(
        starting_point=rows(STARTING_POINT_TERMS),
        additional=rows(ADDITIONAL_TERMS),
    )


def _format_table(title: str, rows: List[TermCoverage]) -> str:
    lines = [title, "-" * 100]
    header = f"{'PROV Terms':<26} {'Support by the Systems':<24} Comments"
    lines.append(header)
    lines.append("-" * 100)
    for entry in rows:
        lines.append(f"{entry.term.name:<26} {entry.support_label:<24} {entry.comment}")
    return "\n".join(lines)


def format_table2(report: CoverageReport) -> str:
    """Table 2 as fixed-width console text (assertion only, no stars)."""
    return _format_table("Table 2: Coverage of Starting-point PROV Terms.",
                         report.tables()[0])


def format_table3(report: CoverageReport) -> str:
    """Table 3 as fixed-width console text (stars = inferred)."""
    return _format_table("Table 3: Coverage of Additional PROV Terms.",
                         report.tables()[1])
