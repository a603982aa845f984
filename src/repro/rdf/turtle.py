"""Turtle serialization and parsing (RDF 1.1 Turtle).

Turtle is the primary format of the corpus: each workflow-run trace is
stored as one ``.ttl`` file.  The serializer groups triples by subject and
predicate (``;`` / ``,`` shorthand) with sorted, deterministic output; the
parser is a hand-written recursive-descent parser over a regex tokenizer and
supports the subset of Turtle the corpus uses plus blank-node property
lists, collections, numeric/boolean shorthand and both ``@prefix`` and
SPARQL-style ``PREFIX`` directives.

The tokenizer and statement parser are shared with the TriG module, which
adds named-graph blocks on top.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .graph import Dataset, Graph
from .namespace import NamespaceManager, RDF
from .terms import BlankNode, IRI, Literal, XSD, escape_string, unescape_string
from .triple import Object, Subject, Triple

__all__ = ["serialize_turtle", "parse_turtle", "TurtleError", "Tokenizer", "TurtleParser"]


class TurtleError(ValueError):
    """Raised on malformed Turtle/TriG input.

    Carries the parse location so corpus loading can tell the user
    *which* trace file broke and where: ``lineno``/``column`` locate the
    failure inside the document, ``source`` names the document (a corpus
    relative path when parsing came through :func:`repro.corpus.storage.
    load_corpus`, or whatever the caller passed to ``parse_turtle``).
    """

    def __init__(
        self,
        message: str,
        lineno: int,
        column: Optional[int] = None,
        source: Optional[str] = None,
    ):
        self.raw_message = message
        self.lineno = lineno
        self.column = column
        self.source = source
        location = f"line {lineno}"
        if column is not None:
            location += f", column {column}"
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}{location}: {message}")

    def __reduce__(self):
        # Exception's default reduce replays args=(formatted message,)
        # against our four-argument __init__; rebuild from the real
        # fields so instances survive pickling (pool workers return
        # parse failures across process boundaries).
        return (TurtleError, (self.raw_message, self.lineno, self.column, self.source))

    def with_source(self, source: str) -> "TurtleError":
        """A copy of this error attributed to a named document."""
        return TurtleError(self.raw_message, self.lineno, self.column, source)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

_RDF_TYPE = RDF.type
_INTEGER_RE = re.compile(r"[+-]?\d+")
_DECIMAL_RE = re.compile(r"[+-]?\d*\.\d+")


def _term_text(term, nsm: NamespaceManager) -> str:
    """Render a term, preferring CURIEs and literal shorthand."""
    if isinstance(term, IRI):
        if term == _RDF_TYPE:
            return "a"
        curie = nsm.compact(term)
        return curie if curie is not None else term.n3()
    if isinstance(term, Literal):
        dt = term.datatype.value
        if term.language is None:
            if dt == XSD.INTEGER and _INTEGER_RE.fullmatch(term.lexical):
                return term.lexical
            if dt == XSD.BOOLEAN and term.lexical in ("true", "false"):
                return term.lexical
            if dt == XSD.DECIMAL and _DECIMAL_RE.fullmatch(term.lexical):
                return term.lexical
            if dt == XSD.STRING:
                return f'"{escape_string(term.lexical)}"'
            curie = nsm.compact(term.datatype)
            suffix = f"^^{curie}" if curie is not None else f"^^{term.datatype.n3()}"
            return f'"{escape_string(term.lexical)}"{suffix}'
        return term.n3()
    return term.n3()


def serialize_graph_body(graph: Graph, nsm: NamespaceManager, indent: str = "") -> Iterator[str]:
    """Yield the subject-grouped statement lines of a graph (no prefixes)."""
    texts = {}  # term -> rendered text: each distinct term is rendered once per call

    def text_of(term) -> str:
        text = texts.get(term)
        if text is None:
            text = texts[term] = _term_text(term, nsm)
        return text

    by_subject = {}
    for t in graph:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    for subject in sorted(by_subject, key=lambda s: s.sort_key()):
        by_pred = by_subject[subject]
        # rdf:type first — conventional Turtle style for readability.
        preds = sorted(by_pred, key=lambda p: (p != _RDF_TYPE, p.sort_key()))
        lines: List[str] = []
        lead = f"{indent}{text_of(subject)} "
        for pred in preds:
            objs = by_pred[pred]
            if len(objs) > 1:
                objs.sort(key=lambda o: o.sort_key())
            lines.append(f"{lead}{text_of(pred)} {', '.join(map(text_of, objs))}")
            lead = f"{indent}    "
        yield " ;\n".join(lines) + " .\n"


def serialize_prefixes(graphs: Iterable[Graph], nsm: NamespaceManager) -> List[str]:
    """The ``@prefix`` lines (and the blank line after them) *graphs* need."""
    used = _used_prefixes(graphs, nsm)
    out = [f"@prefix {prefix}: <{base}> .\n" for prefix, base in nsm.namespaces() if prefix in used]
    if out:
        out.append("\n")
    return out


def serialize_turtle(graph: Graph, namespaces: Optional[NamespaceManager] = None) -> str:
    """Serialize *graph* as Turtle with a prefix header."""
    nsm = namespaces if namespaces is not None else graph.namespaces
    out = serialize_prefixes([graph], nsm)
    out.extend(serialize_graph_body(graph, nsm))
    return "".join(out)


def _used_prefixes(graphs: Iterable[Graph], nsm: NamespaceManager) -> set:
    """Prefixes of the CURIEs that the IRIs of *graphs* compact to.

    Counted are IRI terms, the datatypes of non-string literals (shorthand
    or not) and IRI graph names — gathered as distinct strings first, so
    each is compacted once however often the graphs mention it.
    """
    values = set()
    for graph in graphs:
        if isinstance(graph.identifier, IRI):
            values.add(graph.identifier.value)
        for t in graph:
            for term in (t.subject, t.predicate, t.object):
                if isinstance(term, IRI):
                    values.add(term.value)
                elif isinstance(term, Literal) and term.datatype.value != XSD.STRING:
                    values.add(term.datatype.value)
    used = set()
    for value in values:
        curie = nsm.compact(value)
        if curie is not None:
            used.add(curie.split(":", 1)[0])
    return used


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<iriref><[^<>"{}|^`\\\x00-\x20]*>)
    | (?P<string_long>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\")
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<bnode>_:[A-Za-z0-9_][A-Za-z0-9_.\-]*)
    | (?P<prefix_decl>@prefix\b|@base\b)
    | (?P<sparql_prefix>(?i:PREFIX)\b)
    | (?P<sparql_base>(?i:BASE)\b)
    | (?P<graph_kw>(?i:GRAPH)\b)
    | (?P<langtag>@[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)
    | (?P<double>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
    | (?P<decimal>[+-]?\d*\.\d+)
    | (?P<integer>[+-]?\d+)
    | (?P<boolean>\b(?:true|false)\b)
    | (?P<a>\ba\b)
    | (?P<pname>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[\w\-.]*[\w\-])?)
    | (?P<dtmark>\^\^)
    | (?P<punct>[;,.\[\](){}])
    """,
    re.VERBOSE,
)


def _line_column(text: str, start: int, end: int) -> Tuple[int, int]:
    """Line of offset *end* and column of offset *start*, both 1-based."""
    return text.count("\n", 0, end) + 1, start - text.rfind("\n", 0, start)


class Tokenizer:
    """Regex tokenizer for Turtle/TriG.

    One ``finditer`` pass fills three parallel lists — token kinds, texts
    and start offsets — closed by an ``eof`` sentinel (empty text, offset
    of end of input), so looking ahead needs no bounds check.  Lines and
    columns are derived from the offsets only when an error wants them.
    """

    def __init__(self, text: str):
        self.text = text
        self.kinds: List[str] = []
        self.texts: List[str] = []
        self.starts: List[int] = []
        add_kind, add_text, add_start = self.kinds.append, self.texts.append, self.starts.append
        pos = 0
        for match in _TOKEN_RE.finditer(text):
            start = match.start()
            if start != pos:
                break  # finditer searched past a character no token starts with
            pos = match.end()
            kind = match.lastgroup
            if kind == "ws" or kind == "comment":
                continue
            add_kind(kind)
            add_text(match.group())
            add_start(start)
        if pos != len(text):
            raise TurtleError(f"unexpected character {text[pos]!r}", *_line_column(text, pos, pos))
        add_kind("eof")
        add_text("")
        add_start(pos)

    def location(self, index: int) -> Tuple[int, int]:
        """``(lineno, column)`` of token *index*.

        The column is where the token starts, the line where it ends (a
        long string may span several).
        """
        start = self.starts[index]
        return _line_column(self.text, start, start + len(self.texts[index]))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class TurtleParser:
    """Recursive-descent parser emitting triples into a sink graph.

    The same class parses TriG when *allow_graphs* is set: named-graph
    blocks route triples into ``dataset.graph(name)``.

    Punctuation is recognised by token text alone: no other token kind can
    spell ``.``, ``;``, ``[`` ... (strings keep their quotes, pnames their
    colon), and the ``eof`` sentinel's text is empty.
    """

    def __init__(
        self,
        text: str,
        graph: Optional[Graph] = None,
        dataset: Optional[Dataset] = None,
        allow_graphs: bool = False,
        source: Optional[str] = None,
    ):
        self.source = source
        try:
            self.tokens = Tokenizer(text)
        except TurtleError as exc:
            raise self._attribute(exc) from None
        self._kinds = self.tokens.kinds
        self._texts = self.tokens.texts
        self._pos = 0
        self.dataset = dataset
        self.allow_graphs = allow_graphs
        if allow_graphs:
            if dataset is None:
                raise TurtleError("TriG parsing requires a dataset sink", 0)
            self.nsm = dataset.namespaces
            self.sink = dataset.default
        else:
            self.graph = graph if graph is not None else Graph()
            self.nsm = self.graph.namespaces
            self.sink = self.graph
        self.base = ""
        # pname / IRIREF token text -> the IRI it denotes under the current
        # directives; a document spells each of its IRIs many times.
        self._iris: Dict[str, IRI] = {}
        self._anon_count = 0

    def _attribute(self, exc: TurtleError) -> TurtleError:
        """Attach this parser's document name to an unattributed error."""
        if self.source and exc.source is None:
            return exc.with_source(self.source)
        return exc

    def _error(self, message: str, index: int) -> TurtleError:
        """A :class:`TurtleError` located at token *index*."""
        return TurtleError(message, *self.tokens.location(index))

    # -- token access ---------------------------------------------------------

    def _take(self) -> int:
        """Consume one token and return its index."""
        pos = self._pos
        if self._kinds[pos] == "eof":
            last_line = self.tokens.location(pos - 1)[0] if pos else 1
            raise TurtleError("unexpected end of input", last_line)
        self._pos = pos + 1
        return pos

    def _expect(self, kind: str, text: Optional[str] = None) -> int:
        pos = self._take()
        if self._kinds[pos] != kind or (text is not None and self._texts[pos] != text):
            want = text if text is not None else kind
            raise self._error(f"expected {want!r}, got {self._texts[pos]!r}", pos)
        return pos

    # -- entry point --------------------------------------------------------

    def parse(self):
        try:
            self._parse_document()
        except TurtleError as exc:
            raise self._attribute(exc) from None
        except ValueError as exc:
            # Term constructors (Literal, unescape_string, ...) raise bare
            # ValueError; normalize so callers see one typed parse error,
            # located at the most recently consumed token.
            location = self.tokens.location(self._pos - 1) if self._pos else (1, None)
            raise self._attribute(TurtleError(str(exc), *location)) from None
        return self.dataset if self.allow_graphs else self.graph

    def _parse_document(self):
        kinds = self._kinds
        while True:
            kind = kinds[self._pos]
            if kind == "eof":
                break
            if kind == "prefix_decl":
                if self._texts[self._take()] == "@prefix":
                    self._parse_prefix_binding(require_dot=True)
                else:
                    self._parse_base()
                    self._expect("punct", ".")
            elif kind == "sparql_prefix":
                self._pos += 1
                self._parse_prefix_binding(require_dot=False)
            elif kind == "sparql_base":
                self._pos += 1
                self._parse_base()
            elif self.allow_graphs and self._looks_like_graph_block():
                self._parse_graph_block()
            else:
                self._parse_statement(self.sink)

    # Both directives change what a pname or relative IRIREF denotes from
    # here on, so both forget every resolution made so far.

    def _parse_base(self):
        self.base = self._texts[self._expect("iriref")][1:-1]
        self._iris.clear()

    def _parse_prefix_binding(self, require_dot: bool):
        pname = self._take()
        text = self._texts[pname]
        if self._kinds[pname] != "pname" or not text.endswith(":"):
            raise self._error(f"expected prefix name, got {text!r}", pname)
        self.nsm.bind(text[:-1], self._texts[self._expect("iriref")][1:-1])
        self._iris.clear()
        if require_dot:
            self._expect("punct", ".")
        elif self._texts[self._pos] == ".":
            self._pos += 1

    # -- TriG graph blocks ----------------------------------------------------

    def _looks_like_graph_block(self) -> bool:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "graph_kw" or self._texts[pos] == "{":
            return True
        return kind in ("iriref", "pname", "bnode") and self._texts[pos + 1] == "{"

    def _parse_graph_block(self):
        name = None
        if self._kinds[self._pos] == "graph_kw":
            self._pos += 1
            name = self._parse_graph_name()
        elif self._kinds[self._pos] != "punct":
            name = self._parse_graph_name()
        opened = self._expect("punct", "{")
        target = self.dataset.graph(name)
        while self._texts[self._pos] != "}":
            if self._kinds[self._pos] == "eof":
                raise self._error("unterminated graph block", opened)
            self._parse_statement(target, in_graph=True)
        self._pos += 1

    def _parse_graph_name(self) -> Union[IRI, BlankNode]:
        pos = self._take()
        kind = self._kinds[pos]
        if kind == "iriref" or kind == "pname":
            return self._iri_at(pos)
        if kind == "bnode":
            return BlankNode(self._texts[pos][2:])
        raise self._error(f"invalid graph name {self._texts[pos]!r}", pos)

    # -- statements ------------------------------------------------------------

    def _parse_statement(self, sink: Graph, in_graph: bool = False):
        subject = self._parse_subject(sink)
        self._parse_predicate_object_list(subject, sink)
        pos = self._pos
        text = self._texts[pos]
        if text == ".":
            self._pos = pos + 1
        elif in_graph and text == "}":
            pass  # final statement of a graph block may omit '.'
        elif self._kinds[pos] == "eof" and not in_graph:
            raise self._error("missing '.' at end of statement", pos)
        else:
            raise self._error(f"expected '.', got {text or '<eof>'!r}", pos)

    def _parse_subject(self, sink: Graph) -> Subject:
        pos = self._pos
        term = self._parse_object(sink)
        if isinstance(term, Literal):
            raise self._error("literal cannot be a subject", pos)
        return term

    def _parse_predicate_object_list(self, subject: Subject, sink: Graph):
        texts = self._texts
        add = sink.add
        while True:
            predicate = self._parse_predicate()
            while True:
                # a plain tuple: Triple would re-check term kinds the parser
                # has just established
                add((subject, predicate, self._parse_object(sink)))
                pos = self._pos
                if texts[pos] != ",":
                    break
                self._pos = pos + 1
            if texts[pos] != ";":
                break
            self._pos = pos = pos + 1
            # allow trailing ';' before '.', ']' or '}'
            if texts[pos] in (".", "]", "}"):
                break

    def _parse_predicate(self) -> IRI:
        pos = self._take()
        kind = self._kinds[pos]
        if kind == "pname" or kind == "iriref":
            return self._iri_at(pos)
        if kind == "a":
            return _RDF_TYPE
        raise self._error(f"invalid predicate {self._texts[pos]!r}", pos)

    def _parse_object(self, sink: Graph) -> Object:
        text = self._texts[self._pos]
        if text == "[":
            return self._parse_bnode_property_list(sink)
        if text == "(":
            return self._parse_collection(sink)
        return self._parse_term()

    def _parse_bnode_property_list(self, sink: Graph) -> BlankNode:
        self._expect("punct", "[")
        self._anon_count += 1
        node = BlankNode(f"anon{self._anon_count}")
        if self._texts[self._pos] == "]":
            self._pos += 1
            return node
        self._parse_predicate_object_list(node, sink)
        self._expect("punct", "]")
        return node

    def _parse_collection(self, sink: Graph) -> Union[IRI, BlankNode]:
        opened = self._expect("punct", "(")
        items: List[Object] = []
        while self._texts[self._pos] != ")":
            if self._kinds[self._pos] == "eof":
                raise self._error("unterminated collection", opened)
            items.append(self._parse_object(sink))
        self._pos += 1
        if not items:
            return RDF.nil
        head = None
        prev = None
        for item in items:
            self._anon_count += 1
            cell = BlankNode(f"list{self._anon_count}")
            if head is None:
                head = cell
            if prev is not None:
                sink.add(Triple(prev, RDF.rest, cell))
            sink.add(Triple(cell, RDF.first, item))
            prev = cell
        sink.add(Triple(prev, RDF.rest, RDF.nil))
        return head

    # -- terms -------------------------------------------------------------------

    def _parse_term(self):
        pos = self._take()
        kind = self._kinds[pos]
        if kind == "pname" or kind == "iriref":
            return self._iri_at(pos)
        text = self._texts[pos]
        if kind == "bnode":
            return BlankNode(text[2:])
        if kind == "string" or kind == "string_long":
            return self._finish_literal(pos)
        if kind == "integer":
            return Literal(text, datatype=XSD.INTEGER)
        if kind == "decimal":
            return Literal(text, datatype=XSD.DECIMAL)
        if kind == "double":
            return Literal(text, datatype=XSD.DOUBLE)
        if kind == "boolean":
            return Literal(text, datatype=XSD.BOOLEAN)
        if kind == "a":
            return _RDF_TYPE
        raise self._error(f"unexpected token {text!r}", pos)

    def _finish_literal(self, pos: int) -> Literal:
        """The literal whose (already consumed) string token is at *pos*."""
        text = self._texts[pos]
        raw = text[3:-3] if self._kinds[pos] == "string_long" else text[1:-1]
        try:
            lexical = unescape_string(raw) if "\\" in raw else raw
        except ValueError as exc:
            raise self._error(str(exc), pos) from None
        nxt = self._pos
        kind = self._kinds[nxt]
        if kind == "dtmark":
            self._pos = nxt + 1
            dt = self._take()
            if self._kinds[dt] not in ("iriref", "pname"):
                raise self._error("expected datatype IRI after ^^", dt)
            return Literal(lexical, datatype=self._iri_at(dt))
        if kind == "langtag":
            self._pos = nxt + 1
            try:
                return Literal(lexical, language=self._texts[nxt][1:])
            except ValueError as exc:
                raise self._error(str(exc), nxt) from None
        return Literal(lexical)

    def _iri_at(self, pos: int) -> IRI:
        """The IRI that the pname or IRIREF token at *pos* denotes.

        Prefix expansion, base resolution and IRI validation run on the
        first sight of each distinct token text; a text that fails them is
        never remembered, so it fails the same way wherever it recurs.
        """
        text = self._texts[pos]
        iri = self._iris.get(text)
        if iri is None:
            try:
                if text[0] == "<":
                    value = text[1:-1]
                    if self.base and "://" not in value and not value.startswith("urn:"):
                        value = self.base + value
                    iri = IRI(value)
                else:
                    iri = self.nsm.expand(text)
            except KeyError:
                prefix = text.partition(":")[0]
                raise self._error(f"unknown prefix {prefix!r}", pos) from None
            except ValueError as exc:
                raise self._error(str(exc), pos) from None
            self._iris[text] = iri
        return iri


def parse_turtle(
    text: str, graph: Optional[Graph] = None, source: Optional[str] = None
) -> Graph:
    """Parse Turtle text into *graph* (a new Graph when omitted).

    *source* names the document in error messages — pass a file path so a
    :class:`TurtleError` pinpoints which trace broke and where.
    """
    return TurtleParser(text, graph=graph, source=source).parse()
