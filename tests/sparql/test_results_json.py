"""The SELECT JSON serialiser writes exactly what ``json.dumps`` would.

``ResultTable.to_json`` builds the text from per-term fragments instead
of handing a document to ``json.dumps(..., indent=2, sort_keys=True)``;
the reference below is that call, so every escape, key order and indent
of the fast form is checked against the stdlib encoder.
"""

import json

from hypothesis import example, given, settings, strategies as st

from repro.rdf.terms import IRI, XSD, BlankNode, Literal
from repro.sparql.results import SPARQL_JSON, ResultTable


def _reference(variables, rows):
    def term(value):
        if isinstance(value, IRI):
            return {"type": "uri", "value": value.value}
        if isinstance(value, BlankNode):
            return {"type": "bnode", "value": value.id}
        entry = {"type": "literal", "value": value.lexical}
        if value.language:
            entry["xml:lang"] = value.language
        elif value.datatype.value != XSD.STRING:
            entry["datatype"] = value.datatype.value
        return entry

    bindings = [{name: term(row[name]) for name in variables if row.get(name) is not None}
                for row in rows]
    document = {"head": {"vars": variables}, "results": {"bindings": bindings}}
    return json.dumps(document, indent=2, sort_keys=True)


# Quotes, backslashes, control characters, non-ASCII and non-BMP text.
_TRICKY = "\"\\\x00\x01\x1f\x7f\n\t/é€ 😀𝄞"
_text = st.text(alphabet=st.sampled_from(_TRICKY) | st.characters(), max_size=8)
# IRIs may not hold quotes, backslashes or controls; they may hold the rest.
_iri_text = st.text(
    alphabet=st.sampled_from("ab:/#é€😀𝄞") | st.characters(min_codepoint=0x21).filter(
        lambda c: c not in '<>"{}|^`\\'),
    min_size=1, max_size=8)
_iris = _iri_text.map(lambda tail: IRI("http://example.org/" + tail))
_datatypes = st.sampled_from([XSD.STRING, XSD.INTEGER, XSD.DATETIME]) | _iris.map(
    lambda iri: iri.value)
_terms = st.one_of(
    _iris,
    st.from_regex(r"[A-Za-z0-9_.\-]{1,6}", fullmatch=True).map(BlankNode),
    _text.map(Literal),
    st.builds(Literal, _text, datatype=_datatypes),
    st.builds(Literal, _text, language=st.from_regex(
        r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})?", fullmatch=True)),
)
_names = st.text(alphabet="abzé_0", min_size=1, max_size=3)


@st.composite
def _tables(draw):
    variables = draw(st.lists(_names, max_size=4))
    pool = draw(st.lists(_terms, min_size=1, max_size=5))
    cell = st.none() | st.sampled_from(pool)
    rows = draw(st.lists(
        st.fixed_dictionaries({name: cell for name in variables}), max_size=5))
    return variables, [{k: v for k, v in row.items() if v is not None} for row in rows]


@settings(max_examples=200, deadline=None)
@given(_tables())
@example(([], []))                                   # zero variables, zero rows
@example((["x"], []))                                # zero rows
@example(([], [{}, {}]))                             # rows with no variables
@example((["x", "y"], [{}, {"y": Literal("1", datatype=XSD.INTEGER)}]))  # unbound cells
@example((["z", "a", "m"], [                         # out of sorted order, one
    {"z": IRI("http://example.org/t"), "a": IRI("http://example.org/t"),  # term in two
     "m": Literal('q"\\\x01é😀', language="en-GB")},                      # variables
    {"a": BlankNode("b0"), "m": Literal("", datatype=XSD.STRING)},
]))
def test_to_json_is_the_json_dumps_form(table):
    variables, rows = table
    expected = _reference(variables, rows)
    result = ResultTable(variables, rows)
    assert result.to_json() == expected
    assert result.encoded(SPARQL_JSON) == expected.encode("utf-8")
