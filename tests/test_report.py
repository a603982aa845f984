"""Tests for the Markdown reproduction report and the report/ro commands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import coverage
from repro.cli import main
from repro.corpus import CorpusBuilder, MaintenanceIssue, MaintenanceReport
from repro.report import build_report, format_figure1


@pytest.fixture(scope="module")
def report_text(corpus):
    return build_report(corpus)


class TestReport:
    def test_all_sections_present(self, report_text):
        for heading in (
            "# Reproduction report",
            "## Table 1",
            "## Figure 1",
            "## Section 2",
            "## Table 2",
            "## Table 3",
            "## Section 3",
            "## Corpus profile",
        ):
            assert heading in report_text, heading

    def test_no_deviations(self, report_text):
        assert "DEVIATES" not in report_text
        assert "**identical to the paper**" in report_text

    def test_paper_numbers_present(self, report_text):
        assert "| Workflows | 120 | 120 |" in report_text
        assert "| Workflow runs | 198 | 198 |" in report_text
        assert "| Failed runs | 30 | 30 |" in report_text
        assert "| **Total** | **70** | **50** | **120** |" in report_text

    def test_starred_cells_rendered(self, report_text):
        assert "inferred (*)" in report_text

    def test_maintenance_verdict(self, report_text):
        assert "corpus aligned" in report_text

    def test_is_valid_markdown_tables(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|"):
                assert line.rstrip().endswith("|"), line

    def test_figure1_text(self, corpus):
        text = format_figure1(corpus)
        assert text.startswith("Figure 1")
        assert text.count("\n") == 12
        assert "##############****  (14T 4W)" in text


@pytest.fixture
def session_build(monkeypatch, corpus):
    """Commands that build the seed-2013 corpus get the session's."""
    monkeypatch.setattr(CorpusBuilder, "build", lambda self, **kwargs: corpus)


class TestNewCliCommands:
    def test_report_command(self, session_build, corpus, capsysbinary):
        assert main(["report"]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == build_report(corpus).encode("utf-8") + b"\n"
        assert captured.err == b""

    def test_deviating_cell_exits_1(self, session_build, monkeypatch, capsys):
        monkeypatch.setitem(coverage.PAPER_TABLE2, "prov:used",
                            (coverage.SUPPORT_ABSENT, coverage.SUPPORT_DIRECT))
        assert main(["report"]) == 1
        captured = capsys.readouterr()
        assert "✗ DEVIATES" in captured.out
        assert "prov:used: expected ('absent', 'direct'), measured ('direct', 'direct')" \
            in captured.err

    def test_misaligned_maintenance_exits_1(self, session_build, monkeypatch, capsys):
        issue = MaintenanceIssue("unknown-term", "t-x-run1", "prov:wasRenamedBy")
        monkeypatch.setattr("repro.report.check_corpus",
                            lambda corpus: MaintenanceReport(issues=[issue]))
        assert main(["report"]) == 1
        captured = capsys.readouterr()
        assert "corpus has 1 maintenance issues" in captured.out
        assert "[unknown-term] t-x-run1: prov:wasRenamedBy" in captured.err

    def test_report_under_ascii_locale(self, corpus):
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        env.pop("LANG", None)
        done = subprocess.run([sys.executable, "-m", "repro.cli", "report"], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        assert done.stdout == build_report(corpus).encode("utf-8") + b"\n"

    def test_ro_command(self, session_build, capsys):
        assert main(["ro", "t-bioinformatics-01"]) == 0
        out = capsys.readouterr().out
        assert "ro:ResearchObject" in out

    def test_ro_unknown_template(self, session_build, capsys):
        assert main(["ro", "ghost"]) == 1
