"""Every paper artifact, rendered from one built corpus.

:class:`PaperArtifacts` runs each analysis once — the Section 2
statistics, the coverage of Tables 2 and 3, the corpus profile and the
§6 maintenance pass — and renders from them the seven texts under
``benchmarks/_artifacts/``: Table 1, Figure 1, the Section 2 numbers,
Tables 2 and 3, the corpus profile and the Markdown reproduction report.
``repro-corpus report`` prints the report and exits 1 on
:meth:`PaperArtifacts.deviations`; ``benchmarks/bench_artifacts.py``
writes :meth:`PaperArtifacts.files`.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .apps import DecayDetector
from .corpus import Corpus, check_corpus, format_table1, profile_corpus, table1
from .coverage import coverage_report, format_table2, format_table3, paper_cells

__all__ = ["PaperArtifacts", "build_report", "format_figure1"]


def format_figure1(corpus: Corpus) -> str:
    """Figure 1 as a console histogram (``#`` = Taverna, ``*`` = Wings)."""
    histogram = corpus.domain_histogram()
    width = max(len(name) for name, _, _ in histogram)
    lines = ["Figure 1: Domains of workflows  (# = Taverna, * = Wings)"]
    for name, taverna, wings in histogram:
        lines.append(f"{name.ljust(width)}  {'#' * taverna}{'*' * wings}  ({taverna}T {wings}W)")
    return "\n".join(lines)


def _md_table(headers: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _support_text(value: str) -> str:
    return {"direct": "asserted", "inferred": "inferred (*)", "absent": "—"}[value]


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class PaperArtifacts:
    """One corpus's analyses, each run once, and the texts rendered from them."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.statistics = corpus.statistics()
        self.coverage = coverage_report(
            corpus.system_graph("taverna"), corpus.system_graph("wings")
        )
        self.profile = profile_corpus(corpus).summary()
        self.maintenance = check_corpus(corpus)

    def deviations(self) -> List[str]:
        """Each paper cell that deviates and each maintenance issue."""
        return self.coverage.differences() + [str(issue) for issue in self.maintenance.issues]

    def files(self) -> Dict[str, str]:
        """``benchmarks/_artifacts/`` file name → its exact text."""
        texts = {
            "table1.txt": format_table1(self.corpus),
            "figure1.txt": format_figure1(self.corpus),
            "section2_stats.json": _json(self.statistics),
            "table2.txt": format_table2(self.coverage),
            "table3.txt": format_table3(self.coverage),
            "corpus_profile.json": _json(self.profile),
        }
        files = {name: text + "\n" for name, text in texts.items()}
        files["reproduction_report.md"] = self.report()
        return files

    def report(self) -> str:
        """The full reproduction report as Markdown."""
        corpus, stats = self.corpus, self.statistics
        sections: List[str] = []

        sections.append(
            "# Reproduction report — A Workflow PROV-Corpus based on Taverna and Wings\n\n"
            f"Corpus build seed: **{corpus.seed}** (deterministic).\n"
        )

        # -- Table 1 -----------------------------------------------------------
        sections.append("## Table 1 — corpus fact sheet\n")
        sections.append(_md_table(
            ["Field", "Value"],
            [[row.field, row.value] for row in table1(corpus)],
        ))

        # -- Figure 1 -----------------------------------------------------------
        histogram = corpus.domain_histogram()
        taverna = sum(t for _, t, _ in histogram)
        wings = sum(w for _, _, w in histogram)
        sections.append("\n## Figure 1 — domains of workflows\n")
        sections.append(_md_table(
            ["Domain", "Taverna", "Wings", "Total"],
            [[name, str(t), str(w), str(t + w)] for name, t, w in histogram]
            + [["**Total**", f"**{taverna}**", f"**{wings}**", f"**{taverna + wings}**"]],
        ))

        # -- Section 2 -------------------------------------------------------------
        sections.append("\n## Section 2 — corpus creation statistics\n")
        causes = ", ".join(
            f"{count} {cause}" for cause, count in sorted(stats["failure_causes"].items())
        )
        sections.append(_md_table(
            ["Quantity", "Paper", "Measured"],
            [
                ["Workflows", "120", str(stats["workflows"])],
                ["Workflow runs", "198", str(stats["runs"])],
                ["Failed runs", "30", str(stats["failed_runs"])],
                ["Failure causes", "resource unavailability, illegal inputs, ...", causes],
                ["Corpus size", "360 MB (real payloads)",
                 f"{stats['size_bytes'] / (1024 * 1024):.1f} MB ({stats['triples']} triples)"],
            ],
        ))

        # -- Tables 2 and 3 ------------------------------------------------------------
        titles = ("\n## Table 2 — starting-point PROV term coverage\n",
                  "\n## Table 3 — additional PROV term coverage\n")
        for title, rows in zip(titles, self.coverage.tables()):
            sections.append(title)
            sections.append(_md_table(["Term", "Taverna", "Wings", "Matches paper"], [
                [
                    f"`{entry.term.name}`",
                    _support_text(entry.taverna),
                    _support_text(entry.wings),
                    "✓" if entry.cells == paper_cells(entry.term.name) else "✗ DEVIATES",
                ]
                for entry in rows
            ]))
        verdict = "**identical to the paper**" if self.coverage.matches_paper() else (
            "**DEVIATIONS FOUND**: " + "; ".join(self.coverage.differences())
        )
        sections.append(f"\nCoverage verdict: {verdict}.")

        # -- Applications -------------------------------------------------------------
        sections.append("\n## Section 3 — applications\n")
        detector = DecayDetector(corpus)
        decay_reports = detector.detect_all()
        repairable = sum(
            1 for trace in corpus.failed_traces()
            if detector.repair_candidates(trace.run_id) is not None
        )
        sections.append(_md_table(
            ["Application", "Result"],
            [
                ["(i) dependencies", "lineage DAG derivable from every trace"],
                ["(ii) debugging",
                 f"all {stats['failed_runs']} failed runs: responsible process + affected steps identified"],
                ["(iii) decay",
                 f"{len(decay_reports)} multi-run templates — "
                 f"{len(detector.decayed_templates())} decayed, "
                 f"{len(detector.stable_templates())} stable; "
                 f"{repairable} failed runs repairable from earlier results"],
            ],
        ))

        # -- Profile + maintenance -------------------------------------------------------
        summary = self.profile
        sections.append("\n## Corpus profile\n")
        sections.append(_md_table(
            ["Metric", "Value"],
            [
                ["Traces", str(summary["traces"])],
                ["Total triples", str(summary["total_triples"])],
                ["Triples per trace (median)", str(summary["triples_per_trace"]["median"])],
                ["Mean triples, Taverna traces", str(summary["mean_triples_by_system"]["taverna"])],
                ["Mean triples, Wings traces", str(summary["mean_triples_by_system"]["wings"])],
                ["Mean triples, failed traces", str(summary["failed_trace_mean_triples"])],
                ["Mean triples, successful traces", str(summary["successful_trace_mean_triples"])],
            ],
        ))
        top = ", ".join(
            f"`{e['property']}` ({e['statements']})" for e in summary["top_prov_properties"][:5]
        )
        sections.append(f"\nMost-used PROV properties: {top}.")

        sections.append(f"\nMaintenance pass (§6): {self.maintenance.summary()}.")
        return "\n".join(sections) + "\n"


def build_report(corpus: Corpus) -> str:
    """Render the full reproduction report as Markdown."""
    return PaperArtifacts(corpus).report()
