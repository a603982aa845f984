"""Property-based tests: random PROV documents round-trip every format.

One generator of random (but valid) PROV documents drives both
serializations — PROV-N and the PROV-O RDF mapping — asserting that each
reconstructs an equivalent document, and that the RDF mapping is
isomorphic across independent serializations.
"""

import datetime as dt
import string

from hypothesis import given, settings, strategies as st

from repro.prov.model import ProvDocument
from repro.prov.provn import serialize_provn
from repro.prov.rdf_io import from_graph, to_graph
from tests.prov.provn_parser import parse_provn
from tests.rdf.isomorphism import isomorphic

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_times = st.datetimes(min_value=dt.datetime(2012, 1, 1), max_value=dt.datetime(2013, 12, 31))


@st.composite
def documents(draw):
    doc = ProvDocument()
    doc.namespaces.bind("ex", "http://example.org/")
    n_entities = draw(st.integers(min_value=1, max_value=4))
    n_activities = draw(st.integers(min_value=1, max_value=3))
    entities = []
    for i in range(n_entities):
        name = f"ex:e{i}"
        value = draw(st.one_of(st.integers(-100, 100),
                               st.text(alphabet=string.ascii_letters, max_size=8)))
        doc.entity(name, {"prov:value": value})
        entities.append(name)
    activities = []
    for i in range(n_activities):
        name = f"ex:a{i}"
        start = draw(_times)
        duration = draw(st.integers(min_value=0, max_value=3600))
        doc.activity(name, start_time=start,
                     end_time=start + dt.timedelta(seconds=duration))
        activities.append(name)
    doc.agent("ex:agent", agent_type=draw(st.sampled_from(["person", "software"])))
    # Random relations over the declared elements. Exact duplicates are
    # avoided: a triple set cannot represent two identical unqualified
    # statements, so duplicates legitimately collapse in the RDF mapping.
    from repro.prov.model import Generation

    emitted = set()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["used", "gen", "assoc", "attr", "derive"]))
        entity = draw(st.sampled_from(entities))
        activity = draw(st.sampled_from(activities))
        # The dedup key must mirror the *emitted statement's* identity —
        # e.g. an association only involves (activity, agent), so keying
        # it on the sampled entity would let two draws emit the same
        # statement twice, which collapses in the RDF mapping.
        if kind == "used":
            key = (kind, activity, entity)
            if key in emitted:
                continue
            doc.used(activity, entity)
        elif kind == "gen":
            key = (kind, entity)
            if key in emitted:
                continue
            if any(g.entity == doc.resolve(entity) for g in doc.relations_of(Generation)):
                continue  # generation-uniqueness
            doc.was_generated_by(entity, activity)
        elif kind == "assoc":
            key = (kind, activity)
            if key in emitted:
                continue
            doc.was_associated_with(activity, "ex:agent")
        elif kind == "attr":
            key = (kind, entity)
            if key in emitted:
                continue
            doc.was_attributed_to(entity, "ex:agent")
        elif kind == "derive":
            other = draw(st.sampled_from(entities))
            key = (kind, entity, other)
            if other == entity or key in emitted:
                continue
            doc.had_primary_source(entity, other)
        emitted.add(key)
    return doc


@settings(max_examples=25, deadline=None)
@given(documents())
def test_provn_roundtrip(doc):
    assert parse_provn(serialize_provn(doc)).statistics() == doc.statistics()


@settings(max_examples=25, deadline=None)
@given(documents())
def test_rdf_mapping_roundtrip(doc):
    assert from_graph(to_graph(doc)).statistics() == doc.statistics()


@settings(max_examples=20, deadline=None)
@given(documents())
def test_rdf_serializations_isomorphic(doc):
    """Independent RDF exports differ only in blank-node labels."""
    assert isomorphic(to_graph(doc), to_graph(doc))


@settings(max_examples=20, deadline=None)
@given(documents())
def test_cross_format_chain(doc):
    """N → RDF → N preserves the document statistics."""
    via_n = parse_provn(serialize_provn(doc))
    via_rdf = from_graph(to_graph(via_n))
    assert parse_provn(serialize_provn(via_rdf)).statistics() == doc.statistics()
