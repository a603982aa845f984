"""Test helper: PROV-N parsing, the inverse of :mod:`repro.prov.provn`.

Parses the PROV-N subset our serializer emits — which covers all of
PROV-DM as used by the corpus: ``document``/``endDocument``, ``prefix``
declarations, ``bundle``/``endBundle`` blocks, element statements
(``entity``/``activity``/``agent``) with optional times and attribute
blocks, and every relation statement the model supports.

Round-trip guarantee (tested property-style): for any document built with
the model API, ``parse_provn(serialize_provn(doc))`` reconstructs an
equivalent document.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.prov.model import ProvBundle, ProvDocument
from repro.rdf.namespace import PROV
from repro.rdf.terms import IRI, Literal, XSD, parse_datetime, unescape_string

__all__ = ["parse_provn", "ProvNSyntaxError"]


class ProvNSyntaxError(ValueError):
    """Raised on malformed PROV-N input."""

    def __init__(self, message: str, lineno: int = 0):
        prefix = f"line {lineno}: " if lineno else ""
        super().__init__(prefix + message)
        self.lineno = lineno


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<qiri>'<[^<>\s]*>')
    | (?P<iriref><[^<>\s]*>)
    | (?P<marker>-)
    | (?P<dtsep>%%)
    | (?P<langtag>@[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)
    | (?P<datetime>\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.\d+)?(?:Z|[+-]\d{2}:\d{2})?)
    | (?P<qname>'?[A-Za-z_][A-Za-z0-9_.\-]*(?::[A-Za-z0-9_.\-]+)?'?)
    | (?P<punct>[()\[\],=])
    """,
    re.VERBOSE,
)

#: Keywords that open/close structure.
_ELEMENT_KEYWORDS = {"entity", "activity", "agent"}
_RELATION_KEYWORDS = {
    "used", "wasGeneratedBy", "wasInformedBy", "wasAssociatedWith",
    "wasAttributedTo", "actedOnBehalfOf", "wasDerivedFrom",
    "hadPrimarySource", "wasQuotedFrom", "wasRevisionOf",
    "wasInfluencedBy", "hadMember",
}


class _Token:
    __slots__ = ("kind", "text", "lineno")

    def __init__(self, kind: str, text: str, lineno: int):
        self.kind = kind
        self.text = text
        self.lineno = lineno

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r})"


def _scan(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    lineno = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise ProvNSyntaxError(f"unexpected character {text[pos]!r}", lineno)
        lineno += text.count("\n", pos, match.end())
        kind = match.lastgroup
        pos = match.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append(_Token(kind, match.group(), lineno))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.pos = 0
        self.document = ProvDocument()

    # -- token helpers --------------------------------------------------------

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ProvNSyntaxError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "qname" or tok.text != word:
            raise ProvNSyntaxError(f"expected {word!r}, got {tok.text!r}", tok.lineno)
        return tok

    def expect_punct(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise ProvNSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.lineno)
        return tok

    def accept_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.text == text:
            self.pos += 1
            return True
        return False

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> ProvDocument:
        self.expect_word("document")
        while True:
            tok = self.peek()
            if tok is None:
                raise ProvNSyntaxError("missing endDocument")
            if tok.kind == "qname" and tok.text == "endDocument":
                self.next()
                break
            if tok.kind == "qname" and tok.text == "prefix":
                self._parse_prefix()
            elif tok.kind == "qname" and tok.text == "bundle":
                self._parse_bundle()
            else:
                self._parse_statement(self.document)
        if self.peek() is not None:
            stray = self.peek()
            raise ProvNSyntaxError(f"content after endDocument: {stray.text!r}", stray.lineno)
        return self.document

    def _parse_prefix(self):
        self.expect_word("prefix")
        name_tok = self.next()
        if name_tok.kind != "qname":
            raise ProvNSyntaxError("expected prefix name", name_tok.lineno)
        iri_tok = self.next()
        if iri_tok.kind != "iriref":
            raise ProvNSyntaxError("expected namespace IRI", iri_tok.lineno)
        self.document.namespaces.bind(name_tok.text, iri_tok.text[1:-1])

    def _parse_bundle(self):
        self.expect_word("bundle")
        bundle_id = self._parse_identifier()
        bundle = self.document.bundle(bundle_id)
        while True:
            tok = self.peek()
            if tok is None:
                raise ProvNSyntaxError("missing endBundle")
            if tok.kind == "qname" and tok.text == "endBundle":
                self.next()
                return
            self._parse_statement(bundle)

    def _parse_statement(self, target: ProvBundle):
        tok = self.next()
        if tok.kind != "qname":
            raise ProvNSyntaxError(f"expected statement keyword, got {tok.text!r}", tok.lineno)
        keyword = tok.text
        self.expect_punct("(")
        if keyword in _ELEMENT_KEYWORDS:
            self._parse_element(keyword, target)
        elif keyword in _RELATION_KEYWORDS:
            self._parse_relation(keyword, target)
        else:
            raise ProvNSyntaxError(f"unknown statement {keyword!r}", tok.lineno)
        self.expect_punct(")")

    # -- elements ------------------------------------------------------------------

    def _parse_element(self, keyword: str, target: ProvBundle):
        identifier = self._parse_identifier()
        start = end = None
        if keyword == "activity" and self.accept_punct(","):
            tok = self.peek()
            if tok is not None and tok.kind == "punct" and tok.text == "[":
                attributes = self._parse_attributes()
                self._build_element(keyword, target, identifier, None, None, attributes)
                return
            start = self._parse_time_or_marker()
            self.expect_punct(",")
            end = self._parse_time_or_marker()
            attributes = self._parse_optional_attr_block()
            self._build_element(keyword, target, identifier, start, end, attributes)
            return
        attributes = self._parse_optional_attr_block()
        self._build_element(keyword, target, identifier, start, end, attributes)

    def _build_element(self, keyword, target, identifier, start, end, attributes):
        if keyword == "activity":
            element = target.activity(identifier, start_time=start, end_time=end)
        elif keyword == "agent":
            element = target.agent(identifier)
        else:
            element = target.entity(identifier)
        for key, value in attributes:
            if key == PROV.type and isinstance(value, IRI):
                element.add_type(value)
            else:
                element.add_attribute(key, value)

    # -- relations -------------------------------------------------------------------

    def _parse_relation(self, keyword: str, target: ProvBundle):
        first = self._parse_identifier()
        self.expect_punct(",")
        second = self._parse_identifier()
        time = None
        third = None
        if self.accept_punct(","):
            tok = self.peek()
            if tok is not None and tok.kind == "punct" and tok.text == "[":
                attributes = self._parse_attributes()
                self._build_relation(keyword, target, first, second, time, third, attributes)
                return
            if tok is not None and tok.kind == "datetime":
                time = self._parse_time_or_marker()
            else:
                third = self._parse_identifier()
        attributes = self._parse_optional_attr_block()
        self._build_relation(keyword, target, first, second, time, third, attributes)

    def _build_relation(self, keyword, target, first, second, time, third, attributes):
        if keyword == "used":
            relation = target.used(first, second, time=time)
        elif keyword == "wasGeneratedBy":
            relation = target.was_generated_by(first, second, time=time)
        elif keyword == "wasInformedBy":
            relation = target.was_informed_by(first, second)
        elif keyword == "wasAssociatedWith":
            relation = target.was_associated_with(first, second, plan=third)
        elif keyword == "wasAttributedTo":
            relation = target.was_attributed_to(first, second)
        elif keyword == "actedOnBehalfOf":
            relation = target.acted_on_behalf_of(first, second, activity=third)
        elif keyword == "wasDerivedFrom":
            relation = target.was_derived_from(first, second)
        elif keyword == "hadPrimarySource":
            relation = target.was_derived_from(first, second, subtype="primary_source")
        elif keyword == "wasQuotedFrom":
            relation = target.was_derived_from(first, second, subtype="quotation")
        elif keyword == "wasRevisionOf":
            relation = target.was_derived_from(first, second, subtype="revision")
        elif keyword == "wasInfluencedBy":
            relation = target.was_influenced_by(first, second)
        elif keyword == "hadMember":
            relation = target.had_member(first, second)
        else:  # pragma: no cover - guarded by _RELATION_KEYWORDS
            raise ProvNSyntaxError(f"unknown relation {keyword!r}")
        for key, value in attributes:
            relation.add_attribute(key, value)

    # -- shared pieces ------------------------------------------------------------------

    def _parse_identifier(self) -> IRI:
        tok = self.next()
        if tok.kind == "iriref":
            return IRI(tok.text[1:-1])
        if tok.kind == "qiri":
            return IRI(tok.text[2:-2])
        if tok.kind == "qname":
            name = tok.text.strip("'")
            try:
                return self.document.resolve(name)
            except Exception:
                raise ProvNSyntaxError(f"unresolvable identifier {name!r}", tok.lineno) from None
        raise ProvNSyntaxError(f"expected identifier, got {tok.text!r}", tok.lineno)

    def _parse_time_or_marker(self):
        tok = self.next()
        if tok.kind == "marker":
            return None
        if tok.kind == "datetime":
            return parse_datetime(tok.text)
        raise ProvNSyntaxError(f"expected time or '-', got {tok.text!r}", tok.lineno)

    def _parse_optional_attr_block(self) -> List[Tuple[IRI, object]]:
        if self.accept_punct(","):
            return self._parse_attributes()
        return []

    def _parse_attributes(self) -> List[Tuple[IRI, object]]:
        self.expect_punct("[")
        attributes: List[Tuple[IRI, object]] = []
        if self.accept_punct("]"):
            return attributes
        while True:
            key = self._parse_identifier()
            eq = self.next()
            if not (eq.kind == "punct" and eq.text == "="):
                raise ProvNSyntaxError(f"expected '=', got {eq.text!r}", eq.lineno)
            attributes.append((key, self._parse_attribute_value()))
            if self.accept_punct("]"):
                return attributes
            self.expect_punct(",")

    def _parse_attribute_value(self):
        tok = self.next()
        if tok.kind == "string":
            lexical = unescape_string(tok.text[1:-1])
            nxt = self.peek()
            if nxt is not None and nxt.kind == "dtsep":
                self.next()
                datatype = self._parse_identifier()
                return Literal(lexical, datatype=datatype)
            if nxt is not None and nxt.kind == "langtag":
                self.next()
                return Literal(lexical, language=nxt.text[1:])
            return Literal(lexical)
        if tok.kind == "qname" and tok.text.startswith("'"):
            name = tok.text.strip("'")
            return self.document.resolve(name)
        if tok.kind == "qiri":
            return IRI(tok.text[2:-2])
        if tok.kind == "iriref":
            return IRI(tok.text[1:-1])
        if tok.kind == "datetime":
            return Literal(tok.text, datatype=XSD.DATETIME)
        raise ProvNSyntaxError(f"invalid attribute value {tok.text!r}", tok.lineno)


def parse_provn(text: str) -> ProvDocument:
    """Parse PROV-N text into a :class:`ProvDocument`."""
    return _Parser(text).parse()
