"""The one-shot reproduction report, regenerated as a paper artifact.

Produces ``_artifacts/reproduction_report.md`` — every paper artifact in
one reviewable document (all tables, coverage with inference,
applications, profile, maintenance) — and ``_artifacts/corpus_profile.json``.
"""

import json

from repro.corpus import profile_corpus
from repro.report import build_report
from .conftest import write_artifact


def test_full_report(corpus, artifacts_dir):
    text = build_report(corpus)

    assert "DEVIATES" not in text
    assert "**identical to the paper**" in text
    assert "corpus aligned" in text
    write_artifact(artifacts_dir, "reproduction_report.md", text)


def test_corpus_profile_artifact(corpus, artifacts_dir):
    summary = profile_corpus(corpus).summary()

    assert summary["traces"] == 198
    write_artifact(artifacts_dir, "corpus_profile.json",
                   json.dumps(summary, indent=2, sort_keys=True))
