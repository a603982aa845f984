"""Shared fixtures of the paper-artifact scripts.

The corpus is built once per session; each ``bench_*.py`` here
regenerates one paper artifact (Tables 1–3, Figure 1, Section 2, the
reproduction report) from it, checks it against the paper and writes it
to ``benchmarks/_artifacts/`` so EXPERIMENTS.md can cite it.  Nothing
here reports a timing — that is ``benchmarks/harness``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.corpus import CorpusBuilder

ARTIFACTS = Path(__file__).parent / "_artifacts"


@pytest.fixture(scope="session")
def corpus():
    return CorpusBuilder(seed=2013).build()


@pytest.fixture(scope="session")
def taverna_graph(corpus):
    return corpus.system_graph("taverna")


@pytest.fixture(scope="session")
def wings_graph(corpus):
    return corpus.system_graph("wings")


@pytest.fixture(scope="session")
def artifacts_dir():
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


def write_artifact(directory: Path, name: str, text: str) -> None:
    (directory / name).write_text(text + ("\n" if not text.endswith("\n") else ""))
