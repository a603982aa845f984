"""SPARQL tokenizer.

:func:`scan` reads a query in one ``findall``: each token's raw text and
the whitespace and comments skipped before it.  The query engine builds
its plan-cache key from those raw texts and, on a miss, hands the same
scan to the parser.  :class:`Tokenizer` turns a scan into
:class:`Token` objects for the recursive-descent parser: it gives each
token its kind and start offset and refuses a character no token starts
with.  Keywords are case-insensitive per the SPARQL 1.1 grammar
(upper-cased), and variable tokens keep their ``?``/``$`` sigil
stripped.  Line and column are computed only when an error is raised.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

__all__ = ["Token", "Tokenizer", "SparqlSyntaxError", "KEYWORDS", "Scanned", "scan",
           "position"]


class SparqlSyntaxError(ValueError):
    """Raised on malformed SPARQL query text."""

    def __init__(self, message: str, lineno: int = 0, column: int = 0):
        prefix = f"line {lineno}, column {column}: " if lineno else ""
        super().__init__(prefix + message)
        self.lineno = lineno
        self.column = column


#: Reserved words recognised as keywords (upper-cased canonical form).
KEYWORDS = frozenset(
    """
    SELECT ASK CONSTRUCT DESCRIBE WHERE FROM NAMED PREFIX BASE DISTINCT
    REDUCED OPTIONAL FILTER UNION GRAPH ORDER BY ASC DESC LIMIT OFFSET
    GROUP HAVING AS VALUES BIND MINUS EXISTS NOT IN COUNT SUM MIN MAX AVG
    SAMPLE GROUP_CONCAT SEPARATOR TRUE FALSE A UNDEF
    """.split()
)

# One match per token: (the whitespace and comments before it, the
# token).  Every position matches something — a character no token
# starts with is ``bad``, the end of the text matches empty — so
# ``findall`` never searches past a failure and the skip prefix never
# backtracks.  Alternatives that can start with the same character keep
# their grammar order (bnode before pname, numbers before ``.`` and
# signs, IRIREF before ``<``, ``^^`` before ``^``); the rest go most
# frequent first.  A token's kind is the first alternative that matches
# its raw text alone: the same one that matched it in the text, as no
# alternative looks past its own match.
_SKIP = r"(?:\s+|#[^\n]*)*"
_KINDS = [
    ("var", r"[?$][A-Za-z_][A-Za-z0-9_]*"),
    ("bnode", r"_:[A-Za-z0-9_][A-Za-z0-9_.\-]*"),
    ("pname_or_kw", r"[A-Za-z_][A-Za-z0-9_\-]*(?::[A-Za-z0-9_\-.%]*)?|:[A-Za-z0-9_\-.%]*"),
    ("double", r"[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    ("decimal", r"[+-]?\d*\.\d+"),
    ("integer", r"[+-]?\d+"),
    ("punct", r"[{}().;,]"),
    ("iriref", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("string", r"\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*'"),
    ("langtag", r"@[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*"),
    ("dtmark", r"\^\^"),
    ("op", r"&&|\|\||!=|<=|>=|[=<>!*/+\-^|]"),
    ("bad", r"."),
]
_TOKEN_RE = re.compile(
    f"({_SKIP})(" + "|".join(f"(?:{pattern})" for _, pattern in _KINDS) + r"|\Z)")
_KIND_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _KINDS))

#: (the text skipped before it, raw text) per token, in text order.
Scanned = List[Tuple[str, str]]


def scan(text: str) -> Scanned:
    """The tokens of *text*, in one ``findall``: each one's raw text
    (sigils and case kept) and the whitespace and comments before it.
    A character no token starts with is a token of its own here;
    :class:`Tokenizer` refuses it."""
    pairs = _TOKEN_RE.findall(text)
    while pairs and not pairs[-1][1]:  # the empty matches at the end
        pairs.pop()
    return pairs


def position(text: str, offset: int) -> Tuple[int, int]:
    """(line, column) of *offset* in *text*, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class Token:
    """A single lexical token; *offset* is where it starts in the text."""

    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_punct(self, text: str) -> bool:
        return self.kind in ("punct", "op") and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, offset {self.offset})"


class Tokenizer:
    """Token stream with arbitrary lookahead over a SPARQL query string.

    *scanned* is :func:`scan`'s result for *text* when the caller has it.
    """

    def __init__(self, text: str, scanned: Optional[Scanned] = None):
        self.text = text
        self.tokens: List[Token] = []
        offset = 0
        for skipped, raw in scan(text) if scanned is None else scanned:
            offset += len(skipped)
            kind = _KIND_RE.match(raw).lastgroup
            if kind == "bad":
                raise SparqlSyntaxError(f"unexpected character {raw!r}",
                                        *position(text, offset))
            self.tokens.append(_token(kind, raw, offset))
            offset += len(raw)
        self.pos = 0

    def error(self, message: str, tok: Optional[Token] = None) -> SparqlSyntaxError:
        """A :class:`SparqlSyntaxError` at *tok*, or at the end of the text."""
        offset = len(self.text) if tok is None else tok.offset
        return SparqlSyntaxError(message, *position(self.text, offset))

    # -- navigation ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> Optional[Token]:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of query")
        self.pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        tok = self.next()
        if not tok.is_punct(text):
            raise self.error(f"expected {text!r}, got {tok.text!r}", tok)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if not tok.is_keyword(word):
            raise self.error(f"expected {word}, got {tok.text!r}", tok)
        return tok

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.is_keyword(word):
            self.pos += 1
            return True
        return False

    def accept_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.is_punct(text):
            self.pos += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _token(kind: str, raw: str, offset: int) -> Token:
    if kind == "var":
        return Token("var", raw[1:], offset)
    if kind == "pname_or_kw":
        upper = raw.upper()
        if ":" not in raw and upper in KEYWORDS:
            return Token("keyword", upper, offset)
        return Token("pname", raw, offset)
    return Token(kind, raw, offset)
