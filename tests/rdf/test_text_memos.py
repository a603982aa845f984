"""The RDF text layer remembers work per manager, parser and serialise call.

These tests sit on the edges of those memos: what must invalidate them,
what must never be answered from them, and — as a property over graphs
with nested namespaces and awkward local names — that the memoised
serialisers still write exactly what a memo-free reference writes.
"""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    IRI,
    PROV,
    RDF,
    XSD,
    BlankNode,
    Dataset,
    Graph,
    Literal,
    Namespace,
    NamespaceManager,
    parse_trig,
    parse_turtle,
    serialize_trig,
    serialize_turtle,
)
from repro.rdf.namespace import _is_valid_local
from repro.rdf.turtle import TurtleError

EX = "http://example.org/"


# -- (a) NamespaceManager.compact ---------------------------------------------------

class TestCompactMemo:
    def test_binding_a_longer_nested_namespace_takes_over(self):
        nsm = NamespaceManager(bind_core=False)
        nsm.bind("a", EX)
        iri = IRI(EX + "deep/x")
        assert nsm.compact(iri) is None  # "deep/x" is no local name
        assert nsm.compact(iri) is None  # ... and stays none when remembered
        nsm.bind("b", EX + "deep/")
        assert nsm.compact(iri) == "b:x"
        assert nsm.compact(iri.value) == "b:x"

    def test_rebinding_a_prefix_drops_the_old_answers(self):
        nsm = NamespaceManager(bind_core=False)
        nsm.bind("x", "http://one.example/")
        assert nsm.compact(IRI("http://one.example/y")) == "x:y"
        assert nsm.compact(IRI("http://two.example/y")) is None
        nsm.bind("x", "http://two.example/", replace=True)
        assert nsm.compact(IRI("http://one.example/y")) is None
        assert nsm.compact(IRI("http://two.example/y")) == "x:y"

    def test_a_copy_answers_for_its_own_bindings_only(self):
        nsm = NamespaceManager(bind_core=False)
        nsm.bind("a", EX)
        iri = IRI(EX + "deep/x")
        assert nsm.compact(iri) is None
        clone = nsm.copy()
        clone.bind("b", EX + "deep/")
        assert clone.compact(iri) == "b:x"
        assert nsm.compact(iri) is None
        nsm.bind("c", EX + "deep/")
        assert nsm.compact(iri) == "c:x"
        assert clone.compact(iri) == "b:x"

    def test_local_name_pattern_is_the_per_character_rule(self):
        """``[\\w.-]`` accepts exactly what ``isalnum() or in "_-."`` did."""
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert _is_valid_local("x" + ch + "x") == (ch.isalnum() or ch in "_-."), hex(code)
        assert not _is_valid_local("")
        assert not _is_valid_local("-x")
        assert not _is_valid_local("a.")
        assert _is_valid_local(".a-")


# -- (e) vocabulary attribute access ---------------------------------------------------

class TestNamespaceTermIdentity:
    def test_attribute_access_returns_the_one_iri(self):
        assert PROV.used is PROV.used
        assert PROV.used == IRI("http://www.w3.org/ns/prov#used")

    def test_item_and_term_access_mint_fresh_iris(self):
        ns = Namespace(EX)
        assert ns["x"] == ns["x"] and ns["x"] is not ns["x"]
        assert ns.term("x") == ns.term("x") and ns.term("x") is not ns.term("x")
        assert "x" not in vars(ns)  # data-derived names are not retained
        assert ns.x is ns.x and ns.x == ns["x"]

    def test_private_names_are_not_terms(self):
        with pytest.raises(AttributeError):
            Namespace(EX)._hidden


# -- (b) the parser's pname / IRIREF memo -------------------------------------------------

class TestParserResolutionMemo:
    def test_redeclared_prefix_changes_later_pnames_only(self):
        text = (
            "@prefix ex: <http://one.example/> .\n"
            "ex:a ex:p ex:b .\n"
            "@prefix ex: <http://two.example/> .\n"
            "ex:a ex:p ex:b .\n"
            "PREFIX ex: <http://three.example/>\n"
            "ex:a ex:p ex:b .\n"
        )
        graph = parse_turtle(text)
        assert len(graph) == 3
        for host in ("one", "two", "three"):
            ns = Namespace(f"http://{host}.example/")
            assert (ns.a, ns.p, ns.b) in graph

    def test_base_changes_later_relative_irirefs_only(self):
        text = (
            "<a> <p> <http://abs.example/b> .\n"
            "@base <http://one.example/> .\n"
            "<a> <p> <http://abs.example/b> .\n"
            "BASE <http://two.example/>\n"
            "<a> <p> <http://abs.example/b> .\n"
        )
        subjects = {t.subject.value for t in parse_turtle(text)}
        assert subjects == {"a", "http://one.example/a", "http://two.example/a"}

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("ex:a nope:b ex:c .", "unknown prefix 'nope'"),
            ("ex:a ex:b <> .", "invalid IRI: ''"),
            ('ex:a ex:b "bad \\q escape" .', "unknown escape: \\q"),
        ],
    )
    def test_second_sight_of_a_bad_token_fails_like_the_first(self, statement, message):
        column = statement.index(statement.split()[2 if "nope" not in statement else 1]) + 1
        for good_lines in (0, 1):
            # with good_lines=1 every *good* token of the statement has been
            # seen (and remembered) by the time the bad one is met
            text = "@prefix ex: <http://e/> .\n" + "ex:a ex:b ex:c .\n" * good_lines + statement
            with pytest.raises(TurtleError) as exc:
                parse_turtle(text)
            assert exc.value.raw_message == message
            assert (exc.value.lineno, exc.value.column) == (2 + good_lines, column)
        # the same bad token met twice in one document: the parse stops at
        # the first, wherever it stands
        twice = "@prefix ex: <http://e/> .\n" + statement + "\n" + statement
        with pytest.raises(TurtleError) as exc:
            parse_turtle(twice)
        assert (exc.value.lineno, exc.value.column) == (2, column)


# -- (c) line / column derived from offsets -----------------------------------------------

PREFIX = "@prefix ex: <http://e/> .\n"


class TestLocationsFromOffsets:
    """Values recorded from the per-token line counter this replaced."""

    @pytest.mark.parametrize(
        "text, message, location",
        [
            ("# c1\n# c2\n@prefix ex: <http://e/> . # trailing\nex:a ex:b $ .\n",
             "unexpected character '$'", (4, 11)),
            # a long string reports the line it ends on, the column it starts at
            (PREFIX + 'ex:a ex:b """one\ntwo\nthree""" $ .\n', "unexpected character '$'", (4, 10)),
            (PREFIX + 'ex:a ex:b """one\n\\q two""" .\n', "unknown escape: \\q", (3, 11)),
            (PREFIX + 'ex:a ex:b """one\ntwo""" ] .\n', "expected '.', got ']'", (3, 8)),
            ("@prefix ex: <http://e/> .\r\nex:a ex:b $ .\r\n", "unexpected character '$'", (2, 11)),
            ("@prefix ex: <http://e/> .\r\nex:a\r\n  ex:b ] .\r\n", "unexpected token ']'", (3, 8)),
            (PREFIX + "ex:a ex:b ex:c .\n\n# note\nex:a nope:b ex:c .\n", "unknown prefix 'nope'", (5, 6)),
        ],
    )
    def test_error_location(self, text, message, location):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(text)
        assert exc.value.raw_message == message
        assert (exc.value.lineno, exc.value.column) == location

    def test_text_after_the_last_token_must_be_blank_or_comment(self):
        assert len(parse_turtle(PREFIX + "ex:a ex:b ex:c . # done\n  \n")) == 1
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIX + "ex:a ex:b ex:c .\n  ~")
        assert (exc.value.raw_message, exc.value.lineno, exc.value.column) == (
            "unexpected character '~'", 3, 3)


# -- (d) serialisers against a memo-free reference -------------------------------------------

BASES = [
    EX,
    EX + "deep/",
    EX + "deep/er#",
    EX + "de",  # overlaps the two above without ending on a separator
    "urn:x:",
]
UNBOUND_BASE = "http://elsewhere.example/"
ODD_LOCALS = ["x", "-x", "a.", "", "a.b", ".a", "x_1", "a-b-", "deep/y", "er#z", "ep/z",
              "été", "٣", "²", "中文"]

_locals = st.one_of(
    st.sampled_from(ODD_LOCALS),
    st.text(alphabet="abz09_-./#é", max_size=6),
)
_iris = st.one_of(
    st.tuples(st.sampled_from(BASES + [UNBOUND_BASE]), _locals).map(lambda t: IRI(t[0] + t[1])),
    st.sampled_from([RDF.type, RDF.nil, IRI(XSD.STRING), IRI(XSD.INTEGER)]),
)
_bnodes = st.sampled_from(["b0", "b1", "x.y"]).map(BlankNode)
_literals = st.one_of(
    st.text(max_size=12).map(Literal),
    st.integers(-999, 999).map(lambda n: Literal(str(n), datatype=XSD.INTEGER)),
    st.sampled_from(["1", "+1.50", "x", "true", "false", "TRUE"]).flatmap(
        lambda lexical: st.sampled_from(
            [XSD.INTEGER, XSD.DECIMAL, XSD.BOOLEAN, XSD.DATETIME, EX + "deep/dt", EX + "a."]
        ).map(lambda dt: Literal(lexical, datatype=dt))
    ),
    st.tuples(st.text(max_size=6), st.sampled_from(["en", "de-AT"])).map(
        lambda t: Literal(t[0], language=t[1])
    ),
)
_triples = st.tuples(st.one_of(_iris, _bnodes), _iris, st.one_of(_iris, _bnodes, _literals))
_bound = st.lists(st.sampled_from(BASES), unique=True, max_size=len(BASES))


def _manager(bound) -> NamespaceManager:
    nsm = NamespaceManager()
    for number, base in enumerate(bound):
        nsm.bind(f"p{number}", base)
    return nsm


def _reference_compact(value, bindings):
    """Brute force: try every binding, keep the longest base, then check the local."""
    best = None
    for prefix, base in bindings.items():
        if value.startswith(base) and (best is None or len(base) > len(bindings[best])):
            best = prefix
    if best is None:
        return None
    local = value[len(bindings[best]):]
    if local == "" or local[0] == "-" or local[-1] == ".":
        return None
    if not all(ch.isalnum() or ch in "_-." for ch in local):
        return None
    return f"{best}:{local}"


def _reference_term(term, bindings):
    if term == RDF.type:
        return "a"
    if isinstance(term, IRI):
        return _reference_compact(term.value, bindings) or term.n3()
    if isinstance(term, Literal) and term.language is None:
        dt = term.datatype.value
        shorthand = {
            XSD.INTEGER: r"[+-]?\d+", XSD.DECIMAL: r"[+-]?\d*\.\d+", XSD.BOOLEAN: r"true|false",
        }.get(dt)
        if shorthand is not None and re.fullmatch(shorthand, term.lexical):
            return term.lexical
        curie = _reference_compact(dt, bindings)
        if dt != XSD.STRING and curie is not None:
            return term.n3().rsplit("^^", 1)[0] + "^^" + curie
    return term.n3()


def _reference_body(graph, bindings, indent=""):
    out = []
    for subject in sorted({t.subject for t in graph}, key=lambda s: s.sort_key()):
        predicates = sorted(
            {t.predicate for t in graph.triples(subject)},
            key=lambda p: (p != RDF.type, p.sort_key()),
        )
        lines = []
        for predicate in predicates:
            objects = sorted(graph.objects(subject, predicate), key=lambda o: o.sort_key())
            lead = f"{indent}{_reference_term(subject, bindings)} " if not lines else f"{indent}    "
            lines.append(
                lead + _reference_term(predicate, bindings) + " "
                + ", ".join(_reference_term(o, bindings) for o in objects)
            )
        out.append(" ;\n".join(lines) + " .\n")
    return "".join(out)


def _reference_header(graphs, bindings):
    iris = set()
    for graph in graphs:
        if isinstance(graph.identifier, IRI):
            iris.add(graph.identifier.value)
        for triple in graph:
            for term in triple:
                if isinstance(term, IRI):
                    iris.add(term.value)
                elif isinstance(term, Literal) and term.datatype.value != XSD.STRING:
                    iris.add(term.datatype.value)
    used = {curie.split(":", 1)[0] for curie in (_reference_compact(i, bindings) for i in iris) if curie}
    lines = [f"@prefix {prefix}: <{bindings[prefix]}> .\n" for prefix in sorted(used)]
    return "".join(lines) + ("\n" if lines else "")


@settings(max_examples=150, deadline=None)
@given(_bound, st.lists(_triples, max_size=12))
def test_turtle_equals_reference_and_round_trips(bound, triples):
    graph = Graph(triples, namespaces=_manager(bound))
    bindings = dict(graph.namespaces.namespaces())
    text = serialize_turtle(graph)
    assert text == _reference_header([graph], bindings) + _reference_body(graph, bindings)
    assert serialize_turtle(graph) == text  # a warm manager writes the same bytes
    assert parse_turtle(text) == graph


@settings(max_examples=100, deadline=None)
@given(
    _bound,
    st.lists(_triples, max_size=6),
    st.dictionaries(
        st.tuples(st.sampled_from(BASES + [UNBOUND_BASE]), _locals).map(lambda t: IRI(t[0] + t[1])),
        st.lists(_triples, min_size=1, max_size=6),
        max_size=3,
    ),
)
def test_trig_equals_reference_and_round_trips(bound, default_triples, named):
    dataset = Dataset(namespaces=_manager(bound))
    dataset.default.add_all(default_triples)
    for name, triples in named.items():
        dataset.graph(name).add_all(triples)
    bindings = dict(dataset.namespaces.namespaces())
    expected = _reference_header([dataset.default, *dataset.named_graphs()], bindings)
    expected += _reference_body(dataset.default, bindings)
    for name in dataset.graph_names():
        expected += f"\nGRAPH {_reference_compact(name.value, bindings) or name.n3()} {{\n"
        expected += _reference_body(dataset.graph(name), bindings, indent="    ") + "}\n"
    text = serialize_trig(dataset)
    assert text == expected
    parsed = parse_trig(text)
    assert parsed.graph_names() == dataset.graph_names()
    assert parsed.default == dataset.default
    for name in dataset.graph_names():
        assert parsed.graph(name) == dataset.graph(name)
