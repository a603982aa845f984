"""Unit tests for PROV-N serialization."""

import datetime as dt

import pytest

from repro.prov.model import ProvDocument
from repro.prov.provn import serialize_provn


@pytest.fixture
def doc():
    document = ProvDocument()
    document.namespaces.bind("ex", "http://example.org/")
    run = document.activity("ex:run", start_time=dt.datetime(2013, 1, 1, 10),
                            end_time=dt.datetime(2013, 1, 1, 11))
    document.agent("ex:engine", agent_type="software")
    document.entity("ex:in", {"prov:value": "x"})
    document.entity("ex:out")
    document.used(run, "ex:in", time=dt.datetime(2013, 1, 1, 10, 5))
    document.was_generated_by("ex:out", run)
    document.was_associated_with(run, "ex:engine", plan="ex:plan")
    document.was_attributed_to("ex:out", "ex:engine")
    return document


class TestProvN:
    def test_document_brackets(self, doc):
        text = serialize_provn(doc)
        assert text.startswith("document")
        assert text.rstrip().endswith("endDocument")

    def test_prefixes_listed(self, doc):
        assert "prefix ex <http://example.org/>" in serialize_provn(doc)

    def test_activity_with_times(self, doc):
        text = serialize_provn(doc)
        assert "activity(ex:run, 2013-01-01T10:00:00, 2013-01-01T11:00:00)" in text

    def test_relations_rendered(self, doc):
        text = serialize_provn(doc)
        assert "used(ex:run, ex:in, 2013-01-01T10:05:00)" in text
        assert "wasGeneratedBy(ex:out, ex:run)" in text
        assert "wasAssociatedWith(ex:run, ex:engine, ex:plan)" in text
        assert "wasAttributedTo(ex:out, ex:engine)" in text

    def test_attributes_rendered(self, doc):
        assert 'prov:value="x"' in serialize_provn(doc)

    def test_agent_type_attribute(self, doc):
        assert "agent(ex:engine, [prov:type='prov:SoftwareAgent'])" in serialize_provn(doc)

    def test_bundle_block(self, doc):
        bundle = doc.bundle("ex:b1")
        bundle.entity("ex:inner")
        text = serialize_provn(doc)
        assert "bundle ex:b1" in text
        assert "endBundle" in text

    def test_deterministic(self, doc):
        assert serialize_provn(doc) == serialize_provn(doc)

