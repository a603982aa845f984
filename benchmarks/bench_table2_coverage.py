"""Experiment T2 — Table 2: coverage of starting-point PROV terms.

Scans each system's merged trace graph for the 12 starting-point terms
and checks the result cell-for-cell against the paper's table.
"""

from repro.coverage import (
    PAPER_TABLE2,
    SUPPORT_ABSENT,
    SUPPORT_INFERRED,
    coverage_report,
    format_table2,
)
from .conftest import write_artifact


def test_table2_cells_match_paper(taverna_graph, wings_graph, artifacts_dir):
    report = coverage_report(taverna_graph, wings_graph)

    for entry in report.starting_point:
        expected = PAPER_TABLE2[entry.term.name]
        measured = (
            SUPPORT_ABSENT if entry.taverna == SUPPORT_INFERRED else entry.taverna,
            SUPPORT_ABSENT if entry.wings == SUPPORT_INFERRED else entry.wings,
        )
        assert measured == expected, entry.term.name

    write_artifact(artifacts_dir, "table2.txt", format_table2(report))
