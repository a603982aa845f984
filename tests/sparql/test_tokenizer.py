"""Unit tests for the SPARQL tokenizer."""

import time

import pytest

from repro.sparql.tokenizer import SparqlSyntaxError, Tokenizer, position, scan


def kinds(text):
    return [t.kind for t in Tokenizer(text).tokens]


def texts(text):
    return [t.text for t in Tokenizer(text).tokens]


class TestTokenKinds:
    def test_variables(self):
        toks = Tokenizer("?x $y").tokens
        assert [t.kind for t in toks] == ["var", "var"]
        assert [t.text for t in toks] == ["x", "y"]

    def test_keywords_case_insensitive(self):
        assert kinds("select Select SELECT") == ["keyword"] * 3
        assert texts("select") == ["SELECT"]

    def test_pname_vs_keyword(self):
        toks = Tokenizer("prov:used select:ish regex").tokens
        assert toks[0].kind == "pname"
        assert toks[1].kind == "pname"  # colon makes it a pname
        assert toks[2].kind == "pname"  # function names are not keywords

    def test_iriref(self):
        assert kinds("<http://example.org/x>") == ["iriref"]

    def test_strings_single_and_double(self):
        assert kinds("\"a\" 'b'") == ["string", "string"]

    def test_string_with_escapes(self):
        assert texts(r'"a\"b"') == [r'"a\"b"']

    def test_numbers(self):
        assert kinds("5 2.5 1e3 -7") == ["integer", "decimal", "double", "integer"]

    def test_operators(self):
        assert texts("= != <= >= && || !") == ["=", "!=", "<=", ">=", "&&", "||", "!"]

    def test_punct(self):
        assert kinds("{ } ( ) . ; ,") == ["punct"] * 7

    def test_comments_stripped(self):
        assert kinds("?x # a comment\n?y") == ["var", "var"]

    def test_langtag_and_dtmark(self):
        assert kinds('"x"@en "5"^^xsd:integer') == ["string", "langtag", "string", "dtmark", "pname"]

    def test_bnode(self):
        assert kinds("_:node1") == ["bnode"]

    def test_line_numbers(self):
        """A token keeps its offset; line and column derive from it."""
        text = "?a\n  ?b\n?c"
        toks = Tokenizer(text).tokens
        assert [t.offset for t in toks] == [0, 5, 8]
        assert [position(text, t.offset) for t in toks] == [(1, 1), (2, 3), (3, 1)]

    def test_unexpected_character(self):
        with pytest.raises(SparqlSyntaxError) as raised:
            Tokenizer("?x\n  ~ ?y")
        assert (raised.value.lineno, raised.value.column) == (2, 3)
        assert str(raised.value) == "line 2, column 3: unexpected character '~'"

    def test_error_positions_count_from_the_failing_token(self):
        tk = Tokenizer("SELECT ?x\nWHERE { ?x ?p }")
        tk.pos = 4  # the second "?x"
        error = tk.error("boom", tk.peek())
        assert (error.lineno, error.column) == (2, 9)
        end = tk.error("at the end")
        assert (end.lineno, end.column) == (2, 16)

    def test_scan_keeps_raw_texts_in_one_pass(self):
        text = "select ?regex # note\n regex <a>"
        assert scan(text) == [("", "select"), (" ", "?regex"), (" # note\n ", "regex"),
                              (" ", "<a>")]
        assert [(t.kind, t.offset) for t in Tokenizer(text, scan(text)).tokens] == [
            ("keyword", 0), ("var", 7), ("pname", 22), ("iriref", 28)]

    def test_long_whitespace_runs_scan_in_linear_time(self):
        """The skip prefix of a token never backtracks: a gap or trailing
        blanks after 200k spaces cost one pass, not a quadratic search."""
        started = time.perf_counter()
        assert scan("?x" + " " * 200_000) == [("", "?x")]
        with pytest.raises(SparqlSyntaxError):
            Tokenizer(" " * 200_000 + "~")
        assert time.perf_counter() - started < 1.0


class TestNavigation:
    def test_peek_does_not_advance(self):
        tk = Tokenizer("?x ?y")
        assert tk.peek().text == "x"
        assert tk.peek().text == "x"

    def test_peek_ahead(self):
        tk = Tokenizer("?x ?y")
        assert tk.peek(1).text == "y"
        assert tk.peek(5) is None

    def test_next_past_end_raises(self):
        tk = Tokenizer("?x")
        tk.next()
        with pytest.raises(SparqlSyntaxError):
            tk.next()

    def test_accept_keyword(self):
        tk = Tokenizer("SELECT ?x")
        assert tk.accept_keyword("SELECT") is True
        assert tk.accept_keyword("WHERE") is False

    def test_expect_punct_mismatch(self):
        tk = Tokenizer("}")
        with pytest.raises(SparqlSyntaxError):
            tk.expect_punct("{")
