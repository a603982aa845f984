"""Shared fixtures.

The built corpus is expensive enough (~2 s) to share: `corpus` is
session-scoped and used read-only by every test that needs real traces.
Tests that mutate corpus structures must build their own (see
`small_builder`).
"""

from __future__ import annotations

import datetime as dt
import signal

import pytest

from repro.corpus import CorpusBuilder
from repro.rdf import Graph, Namespace, PROV, RDF, from_python
from repro.workflow import (
    Port,
    Processor,
    Service,
    ServiceRegistry,
    SimulatedClock,
    WorkflowTemplate,
)

EX = Namespace("http://example.org/")


@pytest.fixture(scope="session")
def corpus():
    """The full 198-run corpus, built once per test session (read-only)."""
    return CorpusBuilder(seed=2013).build()


@pytest.fixture(scope="session")
def corpus_dataset(corpus):
    return corpus.dataset()


# The session corpus on disk and its serial store (path index included),
# shared by the SPARQL and path-index tests.

@pytest.fixture(scope="session")
def pathindex_corpus_dir(tmp_path_factory, corpus):
    from repro.corpus import write_corpus

    root = tmp_path_factory.mktemp("pathindex-corpus")
    write_corpus(corpus, root)
    return root


def ingest_store(tmp_path_factory, corpus_dir, jobs: int):
    from repro.store import QuadStore, ingest_corpus

    directory = tmp_path_factory.mktemp(f"pathindex-store-j{jobs}") / "store"
    with QuadStore(directory) as store:
        report = ingest_corpus(store, corpus_dir, jobs=jobs)
        assert report.path_index == "built"
    return directory


@pytest.fixture(scope="session")
def store_dir_j1(tmp_path_factory, pathindex_corpus_dir):
    return ingest_store(tmp_path_factory, pathindex_corpus_dir, jobs=1)


@pytest.fixture(scope="session")
def indexed_store(store_dir_j1):
    from repro.store import QuadStore

    with QuadStore(store_dir_j1) as store:
        yield store


@pytest.fixture(scope="session")
def taverna_graph(corpus):
    return corpus.system_graph("taverna")


@pytest.fixture(scope="session")
def wings_graph(corpus):
    return corpus.system_graph("wings")


@pytest.fixture
def ex():
    return EX


@pytest.fixture
def hang_guard():
    """Fail the test after 60 s instead of letting it hang tier-1 (for
    tests whose regression mode is a parent blocked on a dead worker)."""

    def on_alarm(signum, frame):
        raise TimeoutError("test body still blocked after 60 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def sample_graph():
    """A small provenance graph: 3 activities, 3 entities, timestamps."""
    g = Graph()
    g.namespaces.bind("ex", EX)
    for i in range(3):
        run = EX[f"run{i}"]
        g.add((run, RDF.type, PROV.Activity))
        g.add((run, PROV.startedAtTime, from_python(dt.datetime(2013, 1, 1, 10 + i))))
        if i < 2:
            g.add((run, PROV.endedAtTime, from_python(dt.datetime(2013, 1, 1, 11 + i))))
        g.add((run, PROV.used, EX[f"data{i}"]))
        g.add((EX[f"data{i}"], RDF.type, PROV.Entity))
        g.add((EX[f"data{i}"], EX.size, from_python(10 * i)))
    return g


@pytest.fixture
def registry():
    reg = ServiceRegistry()
    reg.register(Service("remote-svc", kind="rest", endpoint="http://svc.example.org/api"))
    return reg


@pytest.fixture
def clock():
    return SimulatedClock(dt.datetime(2012, 6, 1, 9, 0, 0))


def make_linear_template(system: str = "taverna", template_id: str = "wf-lin",
                         service: str = "remote-svc") -> WorkflowTemplate:
    """fetch → transform → report, the simplest realistic pipeline."""
    t = WorkflowTemplate(template_id, f"{template_id}_name", system, domain="bioinformatics")
    t.add_input("accession", data_type="string")
    t.add_output("report")
    t.add_processor(Processor(
        "fetch", operation="fetch_dataset",
        inputs=[Port("accession")], outputs=[Port("sequences", depth=1)],
        service=service,
    ))
    t.add_processor(Processor(
        "shape", operation="transform",
        inputs=[Port("in", depth=1)], outputs=[Port("out")], config={"label": "shape"},
    ))
    t.add_processor(Processor(
        "publish", operation="render_report",
        inputs=[Port("body")], outputs=[Port("report")],
    ))
    t.connect(":accession", "fetch:accession")
    t.connect("fetch:sequences", "shape:in")
    t.connect("shape:out", "publish:body")
    t.connect("publish:report", ":report")
    return t.freeze()


@pytest.fixture
def linear_template():
    return make_linear_template()
