"""Experiment F1 — Figure 1: domains of workflows.

Regenerates the per-domain workflow histogram split by system and checks
its shape: 12 domains, 70 Taverna + 50 Wings = 120 workflows, with the
documented system profile (life sciences dominated by Taverna,
data-analysis domains by Wings).
"""

from repro.corpus import DOMAINS
from .conftest import write_artifact


def test_figure1_shape(corpus, artifacts_dir):
    histogram = corpus.domain_histogram()

    assert len(histogram) == 12
    assert sum(t for _, t, _ in histogram) == 70
    assert sum(w for _, _, w in histogram) == 50

    by_name = {name: (t, w) for name, t, w in histogram}
    # Shape assertions mirroring the figure's documented profile:
    assert by_name["Bioinformatics"][0] == max(t for _, t, _ in histogram)
    assert by_name["Machine Learning"][1] > by_name["Machine Learning"][0]
    assert by_name["Biodiversity"][1] == 0  # Taverna-only domain
    assert by_name["Bioinformatics"][0] > by_name["Bioinformatics"][1]

    width = max(len(d.name) for d in DOMAINS)
    lines = ["Figure 1: Domains of workflows  (# = Taverna, * = Wings)"]
    for name, taverna, wings in histogram:
        lines.append(f"{name.ljust(width)}  {'#' * taverna}{'*' * wings}  ({taverna}T {wings}W)")
    write_artifact(artifacts_dir, "figure1.txt", "\n".join(lines))


def test_histogram_consistent_with_built_templates(corpus):
    for name, taverna, wings in corpus.domain_histogram():
        domain = next(d for d in DOMAINS if d.name == name)
        templates = [t for t in corpus.templates.values() if t.domain == domain.slug]
        assert sum(1 for t in templates if t.system == "taverna") == taverna
        assert sum(1 for t in templates if t.system == "wings") == wings
